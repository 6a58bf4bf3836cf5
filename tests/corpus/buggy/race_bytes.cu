// Defect: a kernel on one stream stores the odd bytes of a `char`
// buffer from cudaMalloc while a kernel on another stream reads every
// byte, with no ordering between the launches (GPU/GPU read-write race
// on single bytes). The even bytes were only written by the blocking
// copy before both launches, so reading them is ordered: the race is on
// byte 1, not on its 4-byte word.

__global__ void mark_odd(char* c, int n) {
    int i = threadIdx.x + blockIdx.x * blockDim.x;
    if (i < n) {
        c[2 * i + 1] = 7;
    }
}

__global__ void sum_pairs(char* c, int* out, int n) {
    int i = threadIdx.x + blockIdx.x * blockDim.x;
    if (i < n) {
        int even = c[2 * i];
        int odd = c[2 * i + 1];
        out[i] = even + odd;
    }
}

int main() {
    int n = 16;
    char* h = (char*)malloc(2 * n);
    for (int i = 0; i < 2 * n; i++) {
        h[i] = 1;
    }
    char* buf;
    int* out;
    cudaMalloc((void**)&buf, 2 * n);
    cudaMalloc((void**)&out, n * sizeof(int));
    cudaMemcpy(buf, h, 2 * n, cudaMemcpyHostToDevice);
    int s1;
    int s2;
    cudaStreamCreate(&s1);
    cudaStreamCreate(&s2);
    mark_odd<<<1, 16, 0, s1>>>(buf, n);
    sum_pairs<<<1, 16, 0, s2>>>(buf, out, n);
    cudaDeviceSynchronize();
    cudaStreamDestroy(s1);
    cudaStreamDestroy(s2);
    cudaFree(buf);
    cudaFree(out);
    free(h);
    return 0;
}
