// `h` is allocated inside a helper function, between `main`'s two
// allocation sites. Only `a` and `d` are sites of `main`, so the optimizer
// may plan for them alone, and `d`'s candidates belong at `d`'s site.
__global__ void bounce(double* d, double* h, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        d[i] = d[i] + h[i];
    }
}

double* make(int n) {
    double* h;
    cudaMallocManaged((void**)&h, n * sizeof(double));
    for (int i = 0; i < n; i++) {
        h[i] = i;
    }
    return h;
}

int main() {
    int n = 8192;
    double* a;
    cudaMallocManaged((void**)&a, n * sizeof(double));
    double* h = make(n);
    double* d;
    cudaMallocManaged((void**)&d, n * sizeof(double));
    for (int r = 0; r < 4; r++) {
        bounce<<<32, 256>>>(d, h, n);
        cudaDeviceSynchronize();
        for (int i = 0; i < n; i++) {
            d[i] = d[i] * 0.5;
        }
    }
    double sum = 0.0;
    for (int i = 0; i < n; i++) {
        sum = sum + d[i];
    }
    printf("%f\n", sum);
    return 0;
}
