// Defect sites follow control flow: an allocation in a helper's return
// is made at that return, an `if` reads at its condition, and after a
// call returns its caller's statement reads at its own position.

int* grab(int n) {
    return (int*)malloc(n * sizeof(int));
}

int one() {
    int y = 1;
    return y;
}

int main() {
    int n = 8;
    int* p = grab(n);
    int* q;
    cudaMallocManaged((void**)&q, n * sizeof(int));
    q[0] = 1;
    if (q[2] > 0) {
        q[1] = 2;
    }
    int v = one() + q[3];
    printf("v=%d p=%d\n", v, p == 0);
    cudaFree(q);
    return 0;
}
