// Defect: a kernel on stream 1 stores data[0] of a managed buffer, and
// the host then sums the whole buffer without synchronizing. The sum
// reads data[0] unordered with the kernel's store (host/GPU race) and
// data[1..64) before anything wrote them (uninitialized read). The host
// loop runs as one bulk range; the findings must come in the order an
// element-by-element walk meets them: the race on data[0], then the
// uninitialized data[1].

__global__ void store_first(int* data) {
    int i = threadIdx.x + blockIdx.x * blockDim.x;
    if (i == 0) {
        data[0] = 42;
    }
}

int main() {
    int n = 64;
    int* data;
    cudaMallocManaged((void**)&data, n * sizeof(int));
    int s;
    cudaStreamCreate(&s);
    store_first<<<1, 1, 0, s>>>(data);
    int sum = 0;
    for (int i = 0; i < n; i++) {
        sum = sum + data[i];
    }
    cudaDeviceSynchronize();
    cudaStreamDestroy(s);
    cudaFree(data);
    return 0;
}
