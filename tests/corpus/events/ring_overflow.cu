// 512 managed 64 KiB pages, one double used per page. A kernel and a
// host loop take turns rewriting one word of every page, 40 times: more
// events than a 65 536-event ring holds, so a shallower `--events-out`
// ring would drop some and its replay would differ from the live verbs.
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
    for (int r = 0; r < 40; r++) {
        touch<<<4, 128>>>(d, stride);
        cudaDeviceSynchronize();
        for (int p = 0; p < pages; p++) { d[p * stride] = d[p * stride] + 1.0; }
    }
    double sum = 0.0;
    for (int p = 0; p < pages; p++) { sum = sum + d[p * stride]; }
    printf("%f\n", sum);
    return 0;
}
