//! `minicu`: one op diagnoses one MiniCU source — a plain `run_source`,
//! an instrumented `run_source` + `analyze`, and `check_source`.
//!
//! Sources come from the benchmark's own templates, one per program
//! class; each carries its expected exit code and stdout, computed here in
//! plain Rust. Every class appears equally often; the seed draws each
//! source's size from a continuous range (stratified per class) and the
//! constants of its input data.

use hetsim::platform;
use xplacer_check::{check_source, CheckOptions, CheckOutcome};
use xplacer_core::antipattern::{analyze, AnalysisConfig};
use xplacer_interp::{run_source, Outcome};

use crate::rng::Rng;
use crate::{spans, Counts, Plan, Workload};

pub fn plan() -> Plan<MiniCu> {
    Plan {
        ops_per_s: 13.0,
        setup_reps: 25,
        warmup: CLASSES.len(),
        heavy: &["interp.plain", "interp.traced"],
        setup: MiniCu::setup,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Anti-diagonal wavefront kernels over managed matrices.
    Wavefront,
    /// `cudaMalloc` + per-pyramid `cudaMemcpy` of a dynamic-programming wall.
    Pyramid,
    /// A kernel and the CPU take turns writing one managed buffer.
    Alternating,
    /// Contiguous fill/reduce host loops: the interpreter's bulk-sweep path.
    Sweep,
    /// Async launches on two streams, joined by stream syncs.
    Streams,
    /// Hundreds of functions, of which two kernels and their helpers
    /// run briefly.
    LargeSource,
}

const CLASSES: [Class; 6] = [
    Class::Wavefront,
    Class::Pyramid,
    Class::Alternating,
    Class::Sweep,
    Class::Streams,
    Class::LargeSource,
];

#[derive(Debug, Clone, PartialEq)]
pub struct Source {
    pub class: Class,
    pub name: String,
    pub text: String,
    pub exit: i64,
    pub stdout: String,
}

/// Fill `@KEY@` placeholders.
fn fill(template: &str, vars: &[(&str, i64)]) -> String {
    vars.iter().fold(template.to_string(), |t, (k, v)| {
        t.replace(&format!("@{k}@"), &v.to_string())
    })
}

/// Linear map of `u` in `[0, 1)` onto `lo..=hi`.
pub fn size(u: f64, (lo, hi): (i64, i64)) -> i64 {
    lo + ((hi - lo + 1) as f64 * u) as i64
}

/// A template's generator: its size parameter and the seeded stream for
/// its data constants.
pub type Generator = fn(i64, &mut Rng) -> Source;

const WAVEFRONT: &str = r#"// wavefront: one kernel per anti-diagonal of a local-alignment matrix
__global__ void wave(int* H, int* a, int* b, int* best, int n, int m, int d, int lo) {
    int t = blockIdx.x * blockDim.x + threadIdx.x;
    int i = lo + t;
    int j = d - i;
    if (i <= n && j >= 1 && j <= m) {
        int w = m + 1;
        int s = -2;
        if (a[i - 1] == b[j - 1]) { s = 3; }
        int v = H[(i - 1) * w + (j - 1)] + s;
        int up = H[(i - 1) * w + j] - 1;
        int left = H[i * w + (j - 1)] - 1;
        if (up > v) { v = up; }
        if (left > v) { v = left; }
        if (v < 0) { v = 0; }
        H[i * w + j] = v;
        if (v > best[i]) { best[i] = v; }
    }
}

int main() {
    int n = @N@;
    int m = @M@;
    int w = m + 1;
    int cells = (n + 1) * w;
    int rows = n + 1;
    int* a;
    int* b;
    int* H;
    int* best;
    cudaMallocManaged((void**)&a, n * sizeof(int));
    cudaMallocManaged((void**)&b, m * sizeof(int));
    cudaMallocManaged((void**)&H, cells * sizeof(int));
    cudaMallocManaged((void**)&best, rows * sizeof(int));
    for (int i = 0; i < n; i++) { a[i] = (i * @KA@ + @CA@) % 4; }
    for (int j = 0; j < m; j++) { b[j] = (j * @KB@ + @CB@) % 4; }
    for (int k = 0; k < cells; k++) { H[k] = 0; }
    for (int k = 0; k < rows; k++) { best[k] = 0; }
    for (int d = 2; d <= n + m; d++) {
        int lo = 1;
        if (d - m > 1) { lo = d - m; }
        int hi = n;
        if (d - 1 < n) { hi = d - 1; }
        int count = hi - lo + 1;
        if (count > 0) {
            wave<<<(count + 31) / 32, 32>>>(H, a, b, best, n, m, d, lo);
        }
    }
    cudaDeviceSynchronize();
    int score = 0;
    for (int i = 0; i <= n; i++) {
        if (best[i] > score) { score = best[i]; }
    }
    printf("wavefront n=%d m=%d score=%d\n", n, m, score);
    cudaFree(a);
    cudaFree(b);
    cudaFree(H);
    cudaFree(best);
    return score % 251;
}
"#;

pub fn wavefront(n: i64, rng: &mut Rng) -> Source {
    let m = n * 3 / 4 + 4;
    let (ka, ca, kb, cb) = (
        rng.range(1, 7),
        rng.range(0, 3),
        rng.range(1, 7),
        rng.range(0, 3),
    );
    let a: Vec<i64> = (0..n).map(|i| (i * ka + ca) % 4).collect();
    let b: Vec<i64> = (0..m).map(|j| (j * kb + cb) % 4).collect();
    let w = (m + 1) as usize;
    let mut h = vec![0i64; (n as usize + 1) * w];
    let mut score = 0;
    for i in 1..=n as usize {
        for j in 1..=m as usize {
            let s = if a[i - 1] == b[j - 1] { 3 } else { -2 };
            let v = (h[(i - 1) * w + j - 1] + s)
                .max(h[(i - 1) * w + j] - 1)
                .max(h[i * w + j - 1] - 1)
                .max(0);
            h[i * w + j] = v;
            score = score.max(v);
        }
    }
    Source {
        class: Class::Wavefront,
        name: format!("wavefront_{n}x{m}.cu"),
        text: fill(
            WAVEFRONT,
            &[
                ("N", n),
                ("M", m),
                ("KA", ka),
                ("CA", ca),
                ("KB", kb),
                ("CB", cb),
            ],
        ),
        exit: score % 251,
        stdout: format!("wavefront n={n} m={m} score={score}\n"),
    }
}

const PYRAMID: &str = r#"// pyramid: cudaMalloc'd wall copied one pyramid of rows at a time
__global__ void step(int* wall, int* src, int* dst, int cols, int row) {
    int c = blockIdx.x * blockDim.x + threadIdx.x;
    if (c < cols) {
        int best = src[c];
        if (c > 0) {
            if (src[c - 1] < best) { best = src[c - 1]; }
        }
        if (c + 1 < cols) {
            if (src[c + 1] < best) { best = src[c + 1]; }
        }
        dst[c] = best + wall[row * cols + c];
    }
}

int main() {
    int cols = @COLS@;
    int rows = @ROWS@;
    int pyramid = @PYR@;
    int total = rows * cols;
    int* host = (int*)malloc(total * sizeof(int));
    for (int k = 0; k < total; k++) { host[k] = (k * @K@ + @C@) % 10; }
    int* wall;
    int* r0;
    int* r1;
    cudaMalloc((void**)&wall, total * sizeof(int));
    cudaMalloc((void**)&r0, cols * sizeof(int));
    cudaMalloc((void**)&r1, cols * sizeof(int));
    int* res = (int*)malloc(cols * sizeof(int));
    cudaMemcpy(r0, host, cols * sizeof(int), cudaMemcpyHostToDevice);
    int src = 0;
    for (int base = 1; base < rows; base = base + pyramid) {
        int h = pyramid;
        if (base + h > rows) { h = rows - base; }
        int* chunk = host + base * cols;
        int* dchunk = wall + base * cols;
        cudaMemcpy(dchunk, chunk, h * cols * sizeof(int), cudaMemcpyHostToDevice);
        for (int r = base; r < base + h; r++) {
            if (src == 0) {
                step<<<(cols + 63) / 64, 64>>>(wall, r0, r1, cols, r);
            } else {
                step<<<(cols + 63) / 64, 64>>>(wall, r1, r0, cols, r);
            }
            src = 1 - src;
        }
        if (src == 0) {
            cudaMemcpy(res, r0, cols * sizeof(int), cudaMemcpyDeviceToHost);
        } else {
            cudaMemcpy(res, r1, cols * sizeof(int), cudaMemcpyDeviceToHost);
        }
    }
    int low = res[0];
    int sum = 0;
    for (int c = 0; c < cols; c++) {
        sum = sum + res[c];
        if (res[c] < low) { low = res[c]; }
    }
    printf("pyramid cols=%d rows=%d min=%d sum=%d\n", cols, rows, low, sum);
    cudaFree(wall);
    cudaFree(r0);
    cudaFree(r1);
    free(host);
    free(res);
    return low % 251;
}
"#;

pub fn pyramid(cols: i64, rng: &mut Rng) -> Source {
    let rows = 16;
    let (pyr, k, c) = (rng.range(2, 4), rng.range(3, 17), rng.range(0, 9));
    let wall: Vec<i64> = (0..rows * cols).map(|x| (x * k + c) % 10).collect();
    let cols_u = cols as usize;
    let mut cur: Vec<i64> = wall[..cols_u].to_vec();
    for r in 1..rows as usize {
        cur = (0..cols_u)
            .map(|x| {
                let mut best = cur[x];
                if x > 0 {
                    best = best.min(cur[x - 1]);
                }
                if x + 1 < cols_u {
                    best = best.min(cur[x + 1]);
                }
                best + wall[r * cols_u + x]
            })
            .collect();
    }
    let low = *cur.iter().min().expect("cols > 0");
    let sum: i64 = cur.iter().sum();
    Source {
        class: Class::Pyramid,
        name: format!("pyramid_{cols}x{rows}.cu"),
        text: fill(
            PYRAMID,
            &[
                ("COLS", cols),
                ("ROWS", rows),
                ("PYR", pyr),
                ("K", k),
                ("C", c),
            ],
        ),
        exit: low % 251,
        stdout: format!("pyramid cols={cols} rows={rows} min={low} sum={sum}\n"),
    }
}

const ALTERNATING: &str = r#"// alternating: a kernel and the CPU take turns writing managed data
__global__ void bump(int* data, int n, int step) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = (data[i] * 3 + step + i) % 1009;
    }
}

int main() {
    int n = @N@;
    int steps = @STEPS@;
    int touch = 8;
    int stride = n / touch;
    int* data;
    cudaMallocManaged((void**)&data, n * sizeof(int));
    for (int i = 0; i < n; i++) { data[i] = (i * @K@ + @C@) % 1009; }
    for (int s = 0; s < steps; s++) {
        bump<<<(n + 127) / 128, 128>>>(data, n, s);
        cudaDeviceSynchronize();
        for (int t = 0; t < touch; t++) {
            data[t * stride] = (data[t * stride] + s) % 1009;
        }
    }
    int sum = 0;
    for (int i = 0; i < n; i++) { sum = (sum + data[i]) % 100003; }
    printf("alternating n=%d steps=%d sum=%d\n", n, steps, sum);
    cudaFree(data);
    return sum % 251;
}
"#;

pub fn alternating(n: i64, rng: &mut Rng) -> Source {
    let steps = 4;
    let (k, c) = (rng.range(3, 41), rng.range(0, 100));
    let mut data: Vec<i64> = (0..n).map(|i| (i * k + c) % 1009).collect();
    let stride = (n / 8) as usize;
    for s in 0..steps {
        for (i, d) in data.iter_mut().enumerate() {
            *d = (*d * 3 + s + i as i64) % 1009;
        }
        for t in 0..8 {
            data[t * stride] = (data[t * stride] + s) % 1009;
        }
    }
    let sum = data.iter().sum::<i64>() % 100003;
    Source {
        class: Class::Alternating,
        name: format!("alternating_{n}.cu"),
        text: fill(
            ALTERNATING,
            &[("N", n), ("STEPS", steps), ("K", k), ("C", c)],
        ),
        exit: sum % 251,
        stdout: format!("alternating n={n} steps={steps} sum={sum}\n"),
    }
}

const SWEEP: &str = r#"// sweep: contiguous fill and reduce loops over large buffers
__global__ void bump(int* a, int m) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < m) {
        a[i] = a[i] + 1;
    }
}

int main() {
    int n = @N@;
    int m = @M@;
    int reps = @REPS@;
    int* a;
    cudaMallocManaged((void**)&a, n * sizeof(int));
    int* b = (int*)malloc(n * sizeof(int));
    for (int i = 0; i < n; i++) { b[i] = @VB@; }
    int acc = 0;
    for (int r = 0; r < reps; r++) {
        for (int i = 0; i < n; i++) { a[i] = @VA@; }
        bump<<<(m + 63) / 64, 64>>>(a, m);
        cudaDeviceSynchronize();
        for (int i = 0; i < n; i++) { acc += a[i]; }
        for (int i = 0; i < n; i++) { acc += b[i]; }
        acc = acc % 1000003;
    }
    printf("sweep n=%d reps=%d acc=%d\n", n, reps, acc);
    free(b);
    cudaFree(a);
    return acc % 251;
}
"#;

pub fn sweep(n: i64, rng: &mut Rng) -> Source {
    let (m, reps) = (128, 6);
    let (va, vb) = (rng.range(1, 9), rng.range(1, 9));
    let mut acc = 0i64;
    for _ in 0..reps {
        acc = (acc + n * va + m + n * vb) % 1000003;
    }
    Source {
        class: Class::Sweep,
        name: format!("sweep_{n}.cu"),
        text: fill(
            SWEEP,
            &[("N", n), ("M", m), ("REPS", reps), ("VA", va), ("VB", vb)],
        ),
        exit: acc % 251,
        stdout: format!("sweep n={n} reps={reps} acc={acc}\n"),
    }
}

const STREAMS: &str = r#"// streams: two independent chains of async launches, joined by syncs
__global__ void seed(int* p, int n, int k) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        p[i] = (i * k) % 97;
    }
}

__global__ void grow(int* p, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        p[i] = p[i] + 1;
    }
}

int main() {
    int n = @N@;
    int rounds = @ROUNDS@;
    int blocks = (n + 63) / 64;
    int* x;
    int* y;
    cudaMalloc((void**)&x, n * sizeof(int));
    cudaMalloc((void**)&y, n * sizeof(int));
    int* hx = (int*)malloc(n * sizeof(int));
    int* hy = (int*)malloc(n * sizeof(int));
    int s1;
    int s2;
    cudaStreamCreate(&s1);
    cudaStreamCreate(&s2);
    seed<<<blocks, 64, 0, s1>>>(x, n, @KX@);
    seed<<<blocks, 64, 0, s2>>>(y, n, @KY@);
    for (int r = 0; r < rounds; r++) {
        grow<<<blocks, 64, 0, s1>>>(x, n);
        grow<<<blocks, 64, 0, s2>>>(y, n);
    }
    cudaStreamSynchronize(s1);
    cudaStreamSynchronize(s2);
    cudaMemcpy(hx, x, n * sizeof(int), cudaMemcpyDeviceToHost);
    cudaMemcpy(hy, y, n * sizeof(int), cudaMemcpyDeviceToHost);
    int sum = 0;
    for (int i = 0; i < n; i++) { sum = sum + hx[i] * 2 + hy[i]; }
    printf("streams n=%d rounds=%d sum=%d\n", n, rounds, sum);
    cudaStreamDestroy(s1);
    cudaStreamDestroy(s2);
    cudaFree(x);
    cudaFree(y);
    free(hx);
    free(hy);
    return sum % 251;
}
"#;

pub fn streams(n: i64, rng: &mut Rng) -> Source {
    let rounds = 3;
    let (kx, ky) = (rng.range(2, 50), rng.range(2, 50));
    let sum: i64 = (0..n)
        .map(|i| ((i * kx) % 97 + rounds) * 2 + (i * ky) % 97 + rounds)
        .sum();
    Source {
        class: Class::Streams,
        name: format!("streams_{n}.cu"),
        text: fill(
            STREAMS,
            &[("N", n), ("ROUNDS", rounds), ("KX", kx), ("KY", ky)],
        ),
        exit: sum % 251,
        stdout: format!("streams n={n} rounds={rounds} sum={sum}\n"),
    }
}

const HELPER: &str = r#"
__device__ int helper_@K@(int x) {
    int y = x * @K@ + 3;
    int z = 0;
    if (y % 2 == 0) {
        z = y / 2;
    } else {
        z = y * 3 + 1;
    }
    if (z > 5000) {
        z = z % 5000;
    }
    return (z + @K@) % 1000;
}

__global__ void kern_@K@(int* p, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        p[i] = helper_@K@(p[i]);
    }
}
"#;

const LARGE_MAIN: &str = r#"
int main() {
    int n = 128;
    int* p;
    cudaMallocManaged((void**)&p, n * sizeof(int));
    for (int i = 0; i < n; i++) { p[i] = (i * @S@ + 1) % 1000; }
    kern_@A@<<<2, 64>>>(p, n);
    kern_@B@<<<2, 64>>>(p, n);
    cudaDeviceSynchronize();
    int sum = 0;
    for (int i = 0; i < n; i++) { sum = sum + p[i]; }
    printf("large functions=@F@ sum=%d\n", sum);
    cudaFree(p);
    return sum % 251;
}
"#;

fn helper(k: i64, x: i64) -> i64 {
    let y = x * k + 3;
    let mut z = if y % 2 == 0 { y / 2 } else { y * 3 + 1 };
    if z > 5000 {
        z %= 5000;
    }
    (z + k) % 1000
}

pub fn large_source(funcs: i64, rng: &mut Rng) -> Source {
    let (a, b, s) = (
        rng.range(0, funcs - 1),
        rng.range(0, funcs - 1),
        rng.range(3, 97),
    );
    let mut text = String::from("// large source: many functions, two of them run\n");
    for k in 0..funcs {
        text.push_str(&fill(HELPER, &[("K", k)]));
    }
    text.push_str(&fill(
        LARGE_MAIN,
        &[("S", s), ("A", a), ("B", b), ("F", funcs)],
    ));
    let sum: i64 = (0..128)
        .map(|i| helper(b, helper(a, (i * s + 1) % 1000)))
        .sum();
    Source {
        class: Class::LargeSource,
        name: format!("large_{funcs}.cu"),
        text,
        exit: sum % 251,
        stdout: format!("large functions={funcs} sum={sum}\n"),
    }
}

/// The op list: `n` rounded up to whole rounds of the six classes, in
/// blocks that each hold every class once.
pub fn sources(seed: u64, n: usize) -> Vec<Source> {
    let mut rng = Rng::new(seed, "minicu");
    let per = n.div_ceil(CLASSES.len());
    let mut by_class: Vec<Vec<Source>> = CLASSES
        .iter()
        .map(|class| {
            let (gen, range): (Generator, _) = match class {
                Class::Wavefront => (wavefront, (14, 40)),
                Class::Pyramid => (pyramid, (96, 320)),
                Class::Alternating => (alternating, (384, 1536)),
                Class::Sweep => (sweep, (8 << 10, 40 << 10)),
                Class::Streams => (streams, (256, 1024)),
                Class::LargeSource => (large_source, (150, 600)),
            };
            rng.strata(per)
                .into_iter()
                .map(|u| gen(size(u, range), &mut rng))
                .collect()
        })
        .collect();
    let mut out = Vec::with_capacity(per * CLASSES.len());
    for _ in 0..per {
        let mut order: Vec<usize> = (0..CLASSES.len()).collect();
        rng.shuffle(&mut order);
        out.extend(
            order
                .into_iter()
                .map(|c| by_class[c].pop().expect("per sources per class")),
        );
    }
    out
}

pub struct MiniCu {
    pub sources: Vec<Source>,
}

impl MiniCu {
    pub fn setup(seed: u64, n: usize) -> MiniCu {
        MiniCu {
            sources: sources(seed, n),
        }
    }
}

pub struct Done {
    plain: Outcome,
    traced: Outcome,
    findings: usize,
    checked: CheckOutcome,
}

impl Workload for MiniCu {
    type Done = Done;

    fn op_count(&self) -> usize {
        self.sources.len()
    }

    /// Standalone parse and instrumentation of the op's source, so the
    /// lang and instrument layers are timed apart from `run_source`,
    /// which does both inside the op.
    fn traced_prelude(&self, i: usize) {
        let text = &self.sources[i].text;
        if let Ok(prog) = spans::span("lang.parse", || xplacer_lang::parser::parse(text)) {
            std::hint::black_box(spans::span("instrument.pass", || {
                xplacer_instrument::instrument(&prog)
            }));
        }
    }

    fn run(&self, i: usize) -> Result<Done, String> {
        let src = &self.sources[i];
        let pf = platform::intel_pascal();
        let (plain, _) = spans::span("interp.plain", || run_source(&src.text, pf.clone(), false))
            .map_err(|e| format!("{}: plain run: {e}", src.name))?;
        let (traced, interp) =
            spans::span("interp.traced", || run_source(&src.text, pf.clone(), true))
                .map_err(|e| format!("{}: instrumented run: {e}", src.name))?;
        let findings = spans::span("core.analyze", || {
            let smt = &interp.tracer.smt;
            std::hint::black_box(xplacer_core::summarize(smt, false));
            analyze(smt, &AnalysisConfig::default()).len()
        });
        let opts = CheckOptions {
            platform: pf,
            ..CheckOptions::default()
        };
        let checked = spans::span("check.run", || check_source(&src.name, &src.text, &opts))?;
        Ok(Done {
            plain,
            traced,
            findings,
            checked,
        })
    }

    fn verify(&self, i: usize, d: Done, counts: &mut Counts) -> Result<(), String> {
        let src = &self.sources[i];
        for (run, exit, stdout) in [
            ("plain", Some(d.plain.exit), &d.plain.stdout),
            ("instrumented", Some(d.traced.exit), &d.traced.stdout),
            ("checked", d.checked.program_exit, &d.checked.stdout),
        ] {
            if exit != Some(src.exit) || *stdout != src.stdout {
                return Err(format!(
                    "{}: {run} run exited {exit:?} printing {stdout:?}; expected {} and {:?}",
                    src.name, src.exit, src.stdout
                ));
            }
        }
        if !d.checked.report.clean() {
            return Err(format!(
                "{}: checker reported:\n{}",
                src.name,
                d.checked.report.render()
            ));
        }
        let s = &d.plain.stats;
        for (k, v) in [
            ("hetsim.accesses", s.accesses() as f64),
            ("hetsim.faults", s.faults() as f64),
            ("hetsim.migrations", s.migrations() as f64),
            ("hetsim.evictions", s.evictions as f64),
            (
                "hetsim.bytes_moved_mb",
                (s.bytes_migrated + s.bytes_evicted + s.memcpy_bytes) as f64 / (1 << 20) as f64,
            ),
            ("hetsim.sim_ms", d.plain.elapsed_ns / 1e6),
            ("core.findings", d.findings as f64),
            ("check.findings", d.checked.report.findings.len() as f64),
            ("lang.source_kb", src.text.len() as f64 / 1024.0),
        ] {
            *counts.entry(k).or_default() += v;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sources_and_every_class_balanced() {
        let a = sources(9, 20);
        assert_eq!(a, sources(9, 20));
        assert_ne!(a, sources(10, 20));
        assert_eq!(a.len(), 24);
        for class in CLASSES {
            assert_eq!(a.iter().filter(|s| s.class == class).count(), 4);
        }
    }

    #[test]
    fn every_class_matches_its_reference_and_checks_clean() {
        // Two sources per class, at both ends of their size ranges.
        let w = MiniCu {
            sources: sources(1, 12),
        };
        let mut counts = Counts::new();
        for i in 0..w.op_count() {
            let done = w.run(i).unwrap_or_else(|e| panic!("{e}"));
            w.verify(i, done, &mut counts)
                .unwrap_or_else(|e| panic!("{e}"));
        }
        assert!(counts["lang.source_kb"] > 0.0);
    }
}
