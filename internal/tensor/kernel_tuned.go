package tensor

import "aibench/internal/parallel"

// tunedKernels is the autotunable third kernel tier: the same
// GEBP engine as blocked, but with the tile geometry (BlockM×BlockN),
// register micro-kernel (MR×NR from MicroMenu), k-unroll depth, and
// parallel threshold read from the active Tuning at op-call time
// instead of baked in as constants. internal/tune sweeps the menu per
// GEMM shape class on the current machine and persists the winner as a
// tuneconfig envelope; with no persisted config the builtin default is
// exactly the blocked kernel's configuration.
//
// Determinism contract: identical to blocked — every output element
// accumulates its k terms ascending into a single accumulator under
// every TileConfig, so the tuned kernel is bitwise-equal to naive and
// blocked for any tuning, and the tuning (like kernel and shard count)
// is a pure scheduling/perf knob.
type tunedKernels struct{}

func (tunedKernels) Name() string { return "tuned" }

func (tunedKernels) ParallelThreshold() int { return ActiveTuning().Threshold }

// microFunc is the shared micro-kernel signature: fill the rows×cols
// corner of an MR×NR output tile at dst (leading dimension ldc) from
// the packed panels ap (MR-row, k-major) and bp (NR-column, k-major).
type microFunc func(ap, bp []float64, K int, dst []float64, ldc, rows, cols int)

// microFor maps a TileConfig's register shape to its straight-line
// micro-kernel, or nil when no such kernel exists. The 2×4 ×4-unrolled
// entry is the blocked kernel's microKernel itself.
func microFor(c TileConfig) microFunc {
	switch [3]int{c.MR, c.NR, c.KUnroll} {
	case [3]int{2, 4, 1}:
		return micro2x4u1
	case [3]int{2, 4, 4}:
		return microKernel
	case [3]int{4, 4, 1}:
		return micro4x4u1
	case [3]int{4, 4, 2}:
		return micro4x4u2
	case [3]int{2, 8, 1}:
		return micro2x8u1
	case [3]int{2, 8, 2}:
		return micro2x8u2
	}
	return nil
}

// micro2x4u1 is the rolled 2×4 micro-kernel: microKernel's tail loop
// as the whole body. Bit-identical to microKernel (same additions in
// the same ascending-k order); only loop-control overhead differs.
func micro2x4u1(ap, bp []float64, K int, dst []float64, ldc, rows, cols int) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	for p := 0; p < K; p++ {
		a := ap[2*p : 2*p+2]
		b := bp[4*p : 4*p+4]
		a0, a1 := a[0], a[1]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
	}
	if rows >= 2 && cols >= 4 { // interior tile: straight stores
		d0 := dst[:4]
		d1 := dst[ldc : ldc+4]
		d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
		d1[0], d1[1], d1[2], d1[3] = c10, c11, c12, c13
		return
	}
	acc := [2][4]float64{
		{c00, c01, c02, c03},
		{c10, c11, c12, c13},
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			dst[r*ldc+c] = acc[r][c]
		}
	}
}

// micro4x4u1 holds a 4×4 accumulator block: 16 accumulators, 8 operand
// loads per k step. Wider than the register file on amd64 (some
// accumulators spill) but the higher compute-per-load ratio wins on
// machines with cheap L1 — that trade is exactly what the tuner
// measures.
func micro4x4u1(ap, bp []float64, K int, dst []float64, ldc, rows, cols int) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	for p := 0; p < K; p++ {
		a := ap[4*p : 4*p+4]
		b := bp[4*p : 4*p+4]
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	if rows >= 4 && cols >= 4 { // interior tile: straight stores
		d0 := dst[:4]
		d1 := dst[ldc : ldc+4]
		d2 := dst[2*ldc : 2*ldc+4]
		d3 := dst[3*ldc : 3*ldc+4]
		d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
		d1[0], d1[1], d1[2], d1[3] = c10, c11, c12, c13
		d2[0], d2[1], d2[2], d2[3] = c20, c21, c22, c23
		d3[0], d3[1], d3[2], d3[3] = c30, c31, c32, c33
		return
	}
	acc := [4][4]float64{
		{c00, c01, c02, c03},
		{c10, c11, c12, c13},
		{c20, c21, c22, c23},
		{c30, c31, c32, c33},
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			dst[r*ldc+c] = acc[r][c]
		}
	}
}

// micro4x4u2 is micro4x4u1 with the k loop unrolled ×2 — each
// accumulator still receives exactly one product per k step in
// ascending k order, so results are bit-identical to the rolled loop.
func micro4x4u2(ap, bp []float64, K int, dst []float64, ldc, rows, cols int) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	p := 0
	for ; p+2 <= K; p += 2 {
		a := ap[4*p : 4*p+8]
		b := bp[4*p : 4*p+8]
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		a0, a1, a2, a3 = a[4], a[5], a[6], a[7]
		b0, b1, b2, b3 = b[4], b[5], b[6], b[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	for ; p < K; p++ {
		a := ap[4*p : 4*p+4]
		b := bp[4*p : 4*p+4]
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	if rows >= 4 && cols >= 4 { // interior tile: straight stores
		d0 := dst[:4]
		d1 := dst[ldc : ldc+4]
		d2 := dst[2*ldc : 2*ldc+4]
		d3 := dst[3*ldc : 3*ldc+4]
		d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
		d1[0], d1[1], d1[2], d1[3] = c10, c11, c12, c13
		d2[0], d2[1], d2[2], d2[3] = c20, c21, c22, c23
		d3[0], d3[1], d3[2], d3[3] = c30, c31, c32, c33
		return
	}
	acc := [4][4]float64{
		{c00, c01, c02, c03},
		{c10, c11, c12, c13},
		{c20, c21, c22, c23},
		{c30, c31, c32, c33},
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			dst[r*ldc+c] = acc[r][c]
		}
	}
}

// micro2x8u1 streams 8 columns of B against 2 rows of A: 16
// accumulators with only 10 loads per k step, and the 8-wide b loads
// are contiguous — the friendliest layout for the compiler to keep in
// wide registers.
func micro2x8u1(ap, bp []float64, K int, dst []float64, ldc, rows, cols int) {
	var c00, c01, c02, c03, c04, c05, c06, c07 float64
	var c10, c11, c12, c13, c14, c15, c16, c17 float64
	for p := 0; p < K; p++ {
		a := ap[2*p : 2*p+2]
		b := bp[8*p : 8*p+8]
		a0, a1 := a[0], a[1]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		b4, b5, b6, b7 := b[4], b[5], b[6], b[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c04 += a0 * b4
		c05 += a0 * b5
		c06 += a0 * b6
		c07 += a0 * b7
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c14 += a1 * b4
		c15 += a1 * b5
		c16 += a1 * b6
		c17 += a1 * b7
	}
	if rows >= 2 && cols >= 8 { // interior tile: straight stores
		d0 := dst[:8]
		d1 := dst[ldc : ldc+8]
		d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
		d0[4], d0[5], d0[6], d0[7] = c04, c05, c06, c07
		d1[0], d1[1], d1[2], d1[3] = c10, c11, c12, c13
		d1[4], d1[5], d1[6], d1[7] = c14, c15, c16, c17
		return
	}
	acc := [2][8]float64{
		{c00, c01, c02, c03, c04, c05, c06, c07},
		{c10, c11, c12, c13, c14, c15, c16, c17},
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			dst[r*ldc+c] = acc[r][c]
		}
	}
}

// micro2x8u2 is micro2x8u1 with the k loop unrolled ×2; bit-identical
// to the rolled loop for the same reason as the other unrolls.
func micro2x8u2(ap, bp []float64, K int, dst []float64, ldc, rows, cols int) {
	var c00, c01, c02, c03, c04, c05, c06, c07 float64
	var c10, c11, c12, c13, c14, c15, c16, c17 float64
	p := 0
	for ; p+2 <= K; p += 2 {
		a := ap[2*p : 2*p+4]
		b := bp[8*p : 8*p+16]
		a0, a1 := a[0], a[1]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		b4, b5, b6, b7 := b[4], b[5], b[6], b[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c04 += a0 * b4
		c05 += a0 * b5
		c06 += a0 * b6
		c07 += a0 * b7
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c14 += a1 * b4
		c15 += a1 * b5
		c16 += a1 * b6
		c17 += a1 * b7
		a0, a1 = a[2], a[3]
		b0, b1, b2, b3 = b[8], b[9], b[10], b[11]
		b4, b5, b6, b7 = b[12], b[13], b[14], b[15]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c04 += a0 * b4
		c05 += a0 * b5
		c06 += a0 * b6
		c07 += a0 * b7
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c14 += a1 * b4
		c15 += a1 * b5
		c16 += a1 * b6
		c17 += a1 * b7
	}
	for ; p < K; p++ {
		a := ap[2*p : 2*p+2]
		b := bp[8*p : 8*p+8]
		a0, a1 := a[0], a[1]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		b4, b5, b6, b7 := b[4], b[5], b[6], b[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c04 += a0 * b4
		c05 += a0 * b5
		c06 += a0 * b6
		c07 += a0 * b7
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c14 += a1 * b4
		c15 += a1 * b5
		c16 += a1 * b6
		c17 += a1 * b7
	}
	if rows >= 2 && cols >= 8 { // interior tile: straight stores
		d0 := dst[:8]
		d1 := dst[ldc : ldc+8]
		d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
		d0[4], d0[5], d0[6], d0[7] = c04, c05, c06, c07
		d1[0], d1[1], d1[2], d1[3] = c10, c11, c12, c13
		d1[4], d1[5], d1[6], d1[7] = c14, c15, c16, c17
		return
	}
	acc := [2][8]float64{
		{c00, c01, c02, c03, c04, c05, c06, c07},
		{c10, c11, c12, c13, c14, c15, c16, c17},
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			dst[r*ldc+c] = acc[r][c]
		}
	}
}

// tunedTile is gemmTile generalized over the config: same fixed
// column-panel-major tile walk, with panel strides and the micro-kernel
// taken from cfg instead of the package constants.
func tunedTile(apack, bpack []float64, K, rows, cols int, dst []float64, ldc int, cfg TileConfig, micro microFunc) {
	pmr, pnr := cfg.MR, cfg.NR
	for jp := 0; jp < cols; jp += pnr {
		bp := bpack[(jp/pnr)*K*pnr:]
		jw := min(pnr, cols-jp)
		for ip := 0; ip < rows; ip += pmr {
			ap := apack[(ip/pmr)*K*pmr:]
			micro(ap, bp, K, dst[ip*ldc+jp:], ldc, min(pmr, rows-ip), jw)
		}
	}
}

// tunedGemm is blockedGemm generalized over the config: a 2-D grid of
// BlockM×BlockN output tiles (disjoint writes, scheduling-independent),
// serial below the threshold. Block sizes are validated multiples of
// MR/NR, so tile origins always land on panel boundaries.
func tunedGemm(apack, bpack []float64, m, n, K int, cfg TileConfig, threshold int) *Tensor {
	micro := microFor(cfg)
	out := New(m, n)
	mt := (m + cfg.BlockM - 1) / cfg.BlockM
	nt := (n + cfg.BlockN - 1) / cfg.BlockN
	tile := func(ti, tj int) {
		i0, j0 := ti*cfg.BlockM, tj*cfg.BlockN
		rows := min(cfg.BlockM, m-i0)
		cols := min(cfg.BlockN, n-j0)
		tunedTile(apack[(i0/cfg.MR)*K*cfg.MR:], bpack[(j0/cfg.NR)*K*cfg.NR:], K, rows, cols, out.Data[i0*n+j0:], n, cfg, micro)
	}
	if m*K*n >= threshold && mt*nt > 1 {
		parallel.For2D(0, mt, nt, tile)
		return out
	}
	for ti := 0; ti < mt; ti++ {
		for tj := 0; tj < nt; tj++ {
			tile(ti, tj)
		}
	}
	return out
}

// tunedGemmOp packs both operands through the config's panel shapes,
// runs the tuned engine and recycles the packs; the three GEMM entry
// points differ only in their load closures.
func tunedGemmOp(m, n, K int, loadA func(r, k int) float64, loadB func(k, c int) float64, cfg TileConfig, threshold int) *Tensor {
	apack := packA(m, K, cfg.MR, threshold, loadA)
	bpack := packB(n, K, cfg.NR, threshold, loadB)
	out := tunedGemm(apack, bpack, m, n, K, cfg, threshold)
	putScratch(apack)
	putScratch(bpack)
	return out
}

func (tunedKernels) MatMul(a, b *Tensor) *Tensor {
	t := ActiveTuning()
	m, K := a.shape[0], a.shape[1]
	n := b.shape[1]
	ad, bd := a.Data, b.Data
	return tunedGemmOp(m, n, K,
		func(r, k int) float64 { return ad[r*K+k] },
		func(k, c int) float64 { return bd[k*n+c] },
		t.gemmFor(m, K, n), t.Threshold)
}

func (tunedKernels) MatMulT(a, b *Tensor) *Tensor {
	t := ActiveTuning()
	m, K := a.shape[0], a.shape[1]
	n := b.shape[0] // b is n×K; logical B = bᵀ (K×n)
	ad, bd := a.Data, b.Data
	return tunedGemmOp(m, n, K,
		func(r, k int) float64 { return ad[r*K+k] },
		func(k, c int) float64 { return bd[c*K+k] },
		t.gemmFor(m, K, n), t.Threshold)
}

func (tunedKernels) TMatMul(a, b *Tensor) *Tensor {
	t := ActiveTuning()
	K, m := a.shape[0], a.shape[1] // a is K×m; logical A = aᵀ (m×K)
	n := b.shape[1]
	ad, bd := a.Data, b.Data
	return tunedGemmOp(m, n, K,
		func(r, k int) float64 { return ad[k*m+r] },
		func(k, c int) float64 { return bd[k*n+c] },
		t.gemmFor(m, K, n), t.Threshold)
}

// MatVec and Outer share the gated naive bodies (no k-reuse to tile);
// the tuned threshold is the only parameter that applies.
func (tunedKernels) MatVec(a, v *Tensor) *Tensor {
	return gatedMatVec(ActiveTuning().Threshold, a, v)
}

func (tunedKernels) Outer(a, b *Tensor) *Tensor {
	return gatedOuter(ActiveTuning().Threshold, a, b)
}

func (tunedKernels) Conv2D(x, weight *Tensor, p Conv2DParams) *Tensor {
	t := ActiveTuning()
	return tunedConv2D(x, weight, p, t.Conv, t.Threshold)
}

// Conv2DWeightGrad is the blocked kernel's direct-from-NCHW weight
// gradient under the config the tuned TMatMul would pick for the same
// (outC × pixels) · (pixels × c·k·k) product.
func (tunedKernels) Conv2DWeightGrad(x, g *Tensor, p Conv2DParams) *Tensor {
	t := ActiveTuning()
	m, n, K := convGradDims(x, g, p)
	cfg := t.gemmFor(m, K, n)
	apack := packConvGradA(g, cfg.MR, t.Threshold)
	bpack := packIm2ColB(x, p, cfg.NR, t.Threshold)
	out := tunedGemm(apack, bpack, m, n, K, cfg, t.Threshold)
	putScratch(apack)
	putScratch(bpack)
	return out
}

// tunedConv2D is the blocked kernel's chunked im2col-GEMM under the
// config's panel shapes and micro-kernel.
func tunedConv2D(x, weight *Tensor, p Conv2DParams, cfg TileConfig, threshold int) *Tensor {
	micro := microFor(cfg)
	return chunkedConv2D(x, weight, p, cfg.MR, cfg.NR, threshold,
		func(apack, bpack []float64, K, rows, cols int, dst []float64, ldc int) {
			tunedTile(apack, bpack, K, rows, cols, dst, ldc, cfg, micro)
		})
}

// TunedMatMul runs (m×k)·(k×n) through the tuned engine under an
// explicit config and threshold, bypassing the active tuning (and the
// package-level telemetry counters). It is the measurement hook for
// internal/tune's sweep and the adversarial-config equivalence tests.
func TunedMatMul(a, b *Tensor, cfg TileConfig, threshold int) *Tensor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(a.shape) != 2 || len(b.shape) != 2 || a.shape[1] != b.shape[0] {
		panic("tensor: TunedMatMul shape mismatch")
	}
	m, K := a.shape[0], a.shape[1]
	n := b.shape[1]
	ad, bd := a.Data, b.Data
	return tunedGemmOp(m, n, K,
		func(r, k int) float64 { return ad[r*K+k] },
		func(k, c int) float64 { return bd[k*n+c] },
		cfg, threshold)
}

// TunedConv2D runs an NCHW convolution through the tuned engine under
// an explicit config and threshold; same role as TunedMatMul.
func TunedConv2D(x, w *Tensor, p Conv2DParams, cfg TileConfig, threshold int) *Tensor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(x.shape) != 4 || len(w.shape) != 4 || x.shape[1] != w.shape[1] {
		panic("tensor: TunedConv2D shape mismatch")
	}
	return tunedConv2D(x, w, p, cfg, threshold)
}
