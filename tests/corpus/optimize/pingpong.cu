// 512 managed 64 KiB pages, one double used per page. A kernel and a
// host loop take turns rewriting one word of every page, 600 times:
// 1 230 001 events, more than a 1 M-event ring holds.
__global__ void touch(double* d, int stride) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    d[i * stride] = d[i * stride] + 1.0;
}

int main() {
    int pages = 512;
    int stride = 8192;
    double* d;
    cudaMallocManaged((void**)&d, pages * stride * sizeof(double));
    for (int p = 0; p < pages; p++) { d[p * stride] = p; }
    for (int r = 0; r < 600; r++) {
        touch<<<4, 128>>>(d, stride);
        cudaDeviceSynchronize();
        for (int p = 0; p < pages; p++) { d[p * stride] = d[p * stride] + 1.0; }
    }
    double sum = 0.0;
    for (int p = 0; p < pages; p++) { sum = sum + d[p * stride]; }
    printf("%f\n", sum);
    return 0;
}
