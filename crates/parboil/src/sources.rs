//! MiniCL sources of the 25 Parboil OpenCL kernels.
//!
//! Each kernel is a faithful computational analogue of its Parboil
//! counterpart: the same algorithmic pattern (reduction, scan, splat,
//! stencil, SAD, tiled GEMM, …), the same qualitative resource behaviour
//! (memory- vs compute-bound, barriers, atomics, local tiles) and the same
//! source of work-group imbalance where the original has one. Absolute
//! flop counts differ; the reproduction asserts result shapes, not
//! absolute numbers (`tests/reproduction_shapes.rs`).

/// `bfs`: one frontier expansion step of breadth-first search (irregular,
/// atomic frontier queue, strongly degree-dependent imbalance).
pub const BFS: &str = "
kernel void bfs_kernel(global const int* row_ptr, global const int* cols,
                       global int* dist, global const int* frontier,
                       global int* next_frontier, global int* next_count,
                       int frontier_size, int level) {
    size_t tid = get_global_id(0);
    if ((int)tid < frontier_size) {
        int node = frontier[tid];
        int beg = row_ptr[node];
        int end = row_ptr[node + 1];
        for (int e = beg; e < end; ++e) {
            int v = cols[e];
            if (dist[v] < 0) {
                dist[v] = level;
                int slot = atomic_add(next_count, 1);
                next_frontier[slot] = v;
            }
        }
    }
}
";

/// `cutcp`: cutoff Coulombic potential on a 2-D lattice slice
/// (compute-bound inner loop over atoms with a distance cutoff).
pub const CUTCP: &str = "
kernel void cutcp(global const float* atoms, global float* lattice,
                  int natoms, float cutoff2, int nx) {
    size_t i = get_global_id(0);
    size_t j = get_global_id(1);
    float px = (float)i * 0.5f;
    float py = (float)j * 0.5f;
    float energy = 0.0f;
    for (int a = 0; a < natoms; ++a) {
        float dx = atoms[4 * a] - px;
        float dy = atoms[4 * a + 1] - py;
        float dz = atoms[4 * a + 2];
        float r2 = dx * dx + dy * dy + dz * dz;
        if (r2 < cutoff2) {
            float s = 1.0f - r2 / cutoff2;
            energy += atoms[4 * a + 3] * s * rsqrt(r2 + 0.01f);
        }
    }
    lattice[j * (size_t)nx + i] = energy;
}
";

/// `histo` (1/4) `histo_prescan`: block min/max prescan of the input via a
/// local-memory tree reduction.
pub const HISTO_PRESCAN: &str = "
kernel void histo_prescan(global const int* input, global int* minmax, int n) {
    local int lo[128];
    local int hi[128];
    size_t lid = get_local_id(0);
    size_t gid = get_global_id(0);
    int v = 0;
    if ((int)gid < n) { v = input[gid]; }
    lo[lid] = v;
    hi[lid] = v;
    barrier(0);
    int stride = 64;
    while (stride > 0) {
        if ((int)lid < stride) {
            lo[lid] = min(lo[lid], lo[lid + stride]);
            hi[lid] = max(hi[lid], hi[lid + stride]);
        }
        barrier(0);
        stride = stride / 2;
    }
    if (lid == 0) {
        atomic_min(minmax, lo[0]);
        atomic_max(minmax + 1, hi[0]);
    }
}
";

/// `histo` (2/4) `histo_intermediates`: convert raw samples to bin
/// coordinates (regular, memory-bound pass).
pub const HISTO_INTERMEDIATES: &str = "
kernel void histo_intermediates(global const int* input, global int* bins,
                                int n, int nbins) {
    size_t gid = get_global_id(0);
    if ((int)gid < n) {
        int v = input[gid];
        int b = v % nbins;
        if (b < 0) { b = b + nbins; }
        bins[gid] = b;
    }
}
";

/// `histo` (3/4) `histo_main`: per-work-group local histogram with atomics,
/// merged into the global histogram (contention-heavy).
pub const HISTO_MAIN: &str = "
kernel void histo_main(global const int* bins, global int* histo,
                       int n, int nbins) {
    local int lhist[256];
    size_t lid = get_local_id(0);
    size_t ls = get_local_size(0);
    size_t i = lid;
    while ((int)i < nbins) {
        lhist[i] = 0;
        i = i + ls;
    }
    barrier(0);
    size_t gid = get_global_id(0);
    size_t stride = get_global_size(0);
    size_t j = gid;
    while ((int)j < n) {
        atomic_add(lhist + bins[j], 1);
        j = j + stride;
    }
    barrier(0);
    i = lid;
    while ((int)i < nbins) {
        atomic_add(histo + i, lhist[i]);
        i = i + ls;
    }
}
";

/// `histo` (4/4) `histo_final`: saturate 32-bit counts to 8-bit output
/// (tiny element-wise pass).
pub const HISTO_FINAL: &str = "
kernel void histo_final(global const int* histo, global int* out, int nbins) {
    size_t gid = get_global_id(0);
    if ((int)gid < nbins) {
        out[gid] = min(histo[gid], 255);
    }
}
";

/// `lbm`: one stream-and-collide step of a lattice-Boltzmann method on a
/// flattened grid (strongly memory-bound, perfectly regular).
pub const LBM: &str = "
kernel void lbm(global const float* src, global float* dst, int nx, int n) {
    size_t i = get_global_id(0);
    if ((int)i < n) {
        float c = src[i];
        float xm = 0.0f;
        float xp = 0.0f;
        float ym = 0.0f;
        float yp = 0.0f;
        if ((int)i >= 1) { xm = src[i - 1]; }
        if ((int)i < n - 1) { xp = src[i + 1]; }
        if ((int)i >= nx) { ym = src[i - (size_t)nx]; }
        if ((int)i < n - nx) { yp = src[i + (size_t)nx]; }
        float rho = c + xm + xp + ym + yp;
        float eq = rho * 0.2f;
        dst[i] = c + 1.85f * (eq - c);
    }
}
";

/// `mri-gridding` (1/9) `binning_kernel`: map each sample to a grid bin and
/// count bin occupancy with atomics.
pub const MRIG_BINNING: &str = "
kernel void binning_kernel(global const float* sx, global int* bin_of,
                           global int* bin_count, int n, int nbins) {
    size_t i = get_global_id(0);
    if ((int)i < n) {
        int b = (int)(sx[i] * (float)nbins);
        b = max(0, min(b, nbins - 1));
        bin_of[i] = b;
        atomic_add(bin_count + b, 1);
    }
}
";

/// `mri-gridding` (2/9) `reorder_kernel`: scatter samples to their binned
/// positions (irregular writes).
pub const MRIG_REORDER: &str = "
kernel void reorder_kernel(global const float* sx, global const int* bin_of,
                           global const int* bin_start, global int* cursor,
                           global float* out, int n) {
    size_t i = get_global_id(0);
    if ((int)i < n) {
        int b = bin_of[i];
        int at = bin_start[b] + atomic_add(cursor + b, 1);
        out[at] = sx[i];
    }
}
";

/// `mri-gridding` (3/9) `gridding_GPU`: splat each sample onto a window of
/// grid cells with a separable kernel (compute-heavy, occupancy-dependent
/// imbalance from variable window population).
pub const MRIG_GRIDDING: &str = "
kernel void gridding_GPU(global const float* samples, global int* grid,
                         int n, int gridsize, int window) {
    size_t i = get_global_id(0);
    if ((int)i < n) {
        float pos = samples[i] * (float)gridsize;
        int centre = (int)pos;
        int w = window;
        for (int d = -w; d <= w; ++d) {
            int cell = centre + d;
            if (cell >= 0) {
                if (cell < gridsize) {
                    float dist = pos - (float)cell;
                    float wgt = exp(-2.0f * dist * dist);
                    atomic_add(grid + cell, (int)(wgt * 256.0f));
                }
            }
        }
    }
}
";

/// `mri-gridding` (4/9) `scan_L1_kernel`: work-group-local inclusive scan
/// (Hillis-Steele in local memory).
pub const MRIG_SCAN_L1: &str = "
kernel void scan_L1_kernel(global const int* in, global int* out,
                           global int* block_sums, int n) {
    local int tmp[256];
    size_t lid = get_local_id(0);
    size_t gid = get_global_id(0);
    size_t ls = get_local_size(0);
    int v = 0;
    if ((int)gid < n) { v = in[gid]; }
    tmp[lid] = v;
    barrier(0);
    int offset = 1;
    while (offset < (int)ls) {
        int add = 0;
        if ((int)lid >= offset) { add = tmp[lid - (size_t)offset]; }
        barrier(0);
        tmp[lid] = tmp[lid] + add;
        barrier(0);
        offset = offset * 2;
    }
    if ((int)gid < n) { out[gid] = tmp[lid]; }
    if (lid == ls - 1) { block_sums[get_group_id(0)] = tmp[lid]; }
}
";

/// `mri-gridding` (5/9) `scan_inter1_kernel`: first inter-block scan pass
/// (serial scan by a single work group over block sums).
pub const MRIG_SCAN_INTER1: &str = "
kernel void scan_inter1_kernel(global int* sums, int nblocks) {
    size_t gid = get_global_id(0);
    if (gid == 0) {
        int acc = 0;
        for (int i = 0; i < nblocks; ++i) {
            int v = sums[i];
            sums[i] = acc;
            acc = acc + v;
        }
    }
}
";

/// `mri-gridding` (6/9) `scan_inter2_kernel`: second inter-block pass,
/// propagating partial offsets (element-wise).
pub const MRIG_SCAN_INTER2: &str = "
kernel void scan_inter2_kernel(global int* sums, global const int* carry,
                               int nblocks) {
    size_t i = get_global_id(0);
    if ((int)i < nblocks) {
        sums[i] = sums[i] + carry[i / 64];
    }
}
";

/// `mri-gridding` (7/9) `uniformAdd`: add each block's scanned offset to
/// its elements — one of the paper's \"small kernel\" cases (§6.4).
pub const MRIG_UNIFORM_ADD: &str = "
kernel void uniformAdd(global int* data, global const int* offsets, int n) {
    size_t gid = get_global_id(0);
    if ((int)gid < n) {
        data[gid] = data[gid] + offsets[get_group_id(0)];
    }
}
";

/// `mri-gridding` (8/9) `splitSort`: in-work-group bitonic-style sort by a
/// radix digit (barrier-dense).
pub const MRIG_SPLIT_SORT: &str = "
kernel void splitSort(global int* keys, int n, int bit) {
    local int tile[128];
    size_t lid = get_local_id(0);
    size_t gid = get_global_id(0);
    size_t ls = get_local_size(0);
    int v = 2147483647;
    if ((int)gid < n) { v = keys[gid]; }
    tile[lid] = v;
    barrier(0);
    int k = 2;
    while (k <= (int)ls) {
        int j = k / 2;
        while (j > 0) {
            int ixj = (int)lid ^ j;
            if (ixj > (int)lid) {
                int a = tile[lid];
                int b = tile[ixj];
                bool up = ((int)lid & k) == 0;
                if (up && a > b) { tile[lid] = b; tile[ixj] = a; }
                if (!up && a < b) { tile[lid] = b; tile[ixj] = a; }
            }
            barrier(0);
            j = j / 2;
        }
        k = k * 2;
    }
    if ((int)gid < n) { keys[gid] = tile[lid]; }
}
";

/// `mri-gridding` (9/9) `splitRearrange`: scatter sorted keys to their
/// final positions (memory-bound gather/scatter).
pub const MRIG_SPLIT_REARRANGE: &str = "
kernel void splitRearrange(global const int* keys, global const int* pos,
                           global int* out, int n) {
    size_t i = get_global_id(0);
    if ((int)i < n) {
        out[pos[i]] = keys[i];
    }
}
";

/// `mri-q` (1/2) `ComputePhiMag`: magnitude of the phase vector — a tiny
/// element-wise kernel (the other §6.4 \"small kernel\" case).
pub const MRIQ_PHIMAG: &str = "
kernel void ComputePhiMag(global const float* phiR, global const float* phiI,
                          global float* phiMag, int n) {
    size_t i = get_global_id(0);
    if ((int)i < n) {
        float r = phiR[i];
        float im = phiI[i];
        phiMag[i] = r * r + im * im;
    }
}
";

/// `mri-q` (2/2) `ComputeQ`: accumulate Q over all k-space points with
/// sin/cos (heavily compute-bound, perfectly regular).
pub const MRIQ_COMPUTEQ: &str = "
kernel void ComputeQ(global const float* kx, global const float* phiMag,
                     global float* qr, global float* qi, int nk) {
    size_t i = get_global_id(0);
    float x = (float)i * 0.001f;
    float accr = 0.0f;
    float acci = 0.0f;
    for (int k = 0; k < nk; ++k) {
        float ang = 6.2831853f * kx[k] * x;
        float m = phiMag[k];
        accr += m * cos(ang);
        acci += m * sin(ang);
    }
    qr[i] = accr;
    qi[i] = acci;
}
";

/// `sad` (1/3) `mb_sad_calc`: 4x4-block sum of absolute differences against
/// a search window (regular compute over small blocks).
pub const SAD_CALC: &str = "
kernel void mb_sad_calc(global const int* cur, global const int* ref,
                        global int* sad, int width, int positions) {
    size_t blk = get_global_id(0);
    size_t pos = get_global_id(1);
    size_t bx = (blk * 4) % (size_t)width;
    size_t by = (blk * 4) / (size_t)width * 4;
    int acc = 0;
    for (int dy = 0; dy < 4; ++dy) {
        for (int dx = 0; dx < 4; ++dx) {
            size_t ci = (by + (size_t)dy) * (size_t)width + bx + (size_t)dx;
            int d = cur[ci] - ref[ci + pos];
            acc += abs(d);
        }
    }
    sad[pos * get_global_size(0) + blk] = acc;
}
";

/// `sad` (2/3) `larger_sad_calc_8`: combine 4x4 SADs into 8x8 block SADs.
pub const SAD_CALC_8: &str = "
kernel void larger_sad_calc_8(global const int* sad4, global int* sad8,
                              int blocks8, int positions) {
    size_t b = get_global_id(0);
    size_t pos = get_global_id(1);
    if ((int)b < blocks8) {
        size_t base = pos * (size_t)(blocks8 * 4) + b * 4;
        sad8[pos * (size_t)blocks8 + b] =
            sad4[base] + sad4[base + 1] + sad4[base + 2] + sad4[base + 3];
    }
}
";

/// `sad` (3/3) `larger_sad_calc_16`: combine 8x8 SADs into 16x16 block SADs.
pub const SAD_CALC_16: &str = "
kernel void larger_sad_calc_16(global const int* sad8, global int* sad16,
                               int blocks16, int positions) {
    size_t b = get_global_id(0);
    size_t pos = get_global_id(1);
    if ((int)b < blocks16) {
        size_t base = pos * (size_t)(blocks16 * 4) + b * 4;
        sad16[pos * (size_t)blocks16 + b] =
            sad8[base] + sad8[base + 1] + sad8[base + 2] + sad8[base + 3];
    }
}
";

/// `sgemm`: tiled dense matrix multiply with a local-memory tile of B
/// (the classic barrier-synchronised compute kernel).
pub const SGEMM: &str = "
kernel void sgemm(global const float* a, global const float* b,
                  global float* c, int n, float alpha, float beta) {
    local float tile[64];
    size_t col = get_global_id(0);
    size_t row = get_global_id(1);
    size_t lid = get_local_id(0);
    size_t ls = get_local_size(0);
    float acc = 0.0f;
    int t = 0;
    while (t < n) {
        tile[lid] = b[(size_t)t * (size_t)n + col];
        barrier(0);
        for (int k = 0; k < (int)ls; ++k) {
            if (t + k < n) {
                acc += a[row * (size_t)n + (size_t)(t + k)] * tile[k];
            }
        }
        barrier(0);
        t = t + (int)ls;
    }
    c[row * (size_t)n + col] = alpha * acc + beta * c[row * (size_t)n + col];
}
";

/// `spmv`: sparse matrix-vector product in JDS-like row form (irregular
/// row lengths drive the imbalance).
pub const SPMV: &str = "
kernel void spmv(global const int* row_ptr, global const int* cols,
                 global const float* vals, global const float* x,
                 global float* y, int rows) {
    size_t r = get_global_id(0);
    if ((int)r < rows) {
        int beg = row_ptr[r];
        int end = row_ptr[r + 1];
        float acc = 0.0f;
        for (int e = beg; e < end; ++e) {
            acc += vals[e] * x[cols[e]];
        }
        y[r] = acc;
    }
}
";

/// `stencil`: 7-point 3-D Jacobi stencil on a flattened grid (memory-bound,
/// perfectly regular).
pub const STENCIL: &str = "
kernel void stencil(global const float* in, global float* out,
                    int nx, int ny, int n) {
    size_t i = get_global_id(0);
    int plane = nx * ny;
    if ((int)i >= plane && (int)i < n - plane) {
        float c = in[i];
        float s = in[i - 1] + in[i + 1]
                + in[i - (size_t)nx] + in[i + (size_t)nx]
                + in[i - (size_t)plane] + in[i + (size_t)plane];
        out[i] = 0.6f * c + s / 15.0f;
    }
}
";

/// `tpacf`: two-point angular correlation — per-item loop over a data
/// window feeding a shared histogram through atomics (compute-bound with
/// contention).
pub const TPACF: &str = "
kernel void tpacf(global const float* angles, global int* histogram,
                  int n, int nbins) {
    local int lhist[64];
    size_t lid = get_local_id(0);
    size_t ls = get_local_size(0);
    size_t i = lid;
    while ((int)i < nbins) {
        lhist[i] = 0;
        i = i + ls;
    }
    barrier(0);
    size_t gid = get_global_id(0);
    if ((int)gid < n) {
        float a = angles[gid];
        for (int j = 0; j < 64; ++j) {
            float b = angles[(gid + (size_t)j * 17) % (size_t)n];
            float d = fabs(a - b);
            int bin = (int)(d * (float)nbins);
            bin = min(bin, nbins - 1);
            atomic_add(lhist + bin, 1);
        }
    }
    barrier(0);
    i = lid;
    while ((int)i < nbins) {
        atomic_add(histogram + i, lhist[i]);
        i = i + ls;
    }
}
";
