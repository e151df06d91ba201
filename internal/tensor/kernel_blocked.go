package tensor

import "aibench/internal/parallel"

// blockedKernels is the default compute kernel: a GEBP-style GEMM that
// packs both operands into contiguous panels and drives an unrolled
// mr×nr register micro-kernel over a 2-D grid of cache-sized output
// tiles, plus a chunked im2col-GEMM convolution that never
// materializes the full column matrix.
//
// Determinism contract: every output element accumulates its k terms
// in ascending order into a single accumulator, exactly like the naive
// kernel's serial loops. Tiles write disjoint output regions, so the
// 2-D parallel decomposition affects scheduling only — results are
// bitwise reproducible for any goroutine interleaving, and match the
// naive kernel bit for bit on finite data (the only divergence is the
// naive kernel's skip of exact-zero multiplicands, which cannot change
// a finite sum).
type blockedKernels struct{}

const (
	// mr×nr is the register micro-tile: mr rows of A and nr columns of
	// B are held in scalar registers while streaming the shared k
	// dimension, so the inner loop does mr*nr multiply-adds per mr+nr
	// loads and no stores. 2×4 keeps the 8 accumulators plus the 6
	// operand temporaries inside the 15 usable amd64 XMM registers —
	// measured faster than the spilling 4×4 and 3×4 shapes.
	mr = 2
	nr = 4
	// blockM×blockN is the output tile one parallel task owns. 64×64
	// keeps the packed A and B slices a tile touches (64·K doubles
	// each) within L2 for the suite's typical K, while still cutting a
	// 512×512 product into 64 independent tasks.
	blockM = 64
	blockN = 64
	// convRowChunk is how many im2col rows (output pixels) one
	// convolution task unfolds, multiplies, and scatters at a time; a
	// multiple of mr so chunks pack into whole panels.
	convRowChunk = 128
)

func (blockedKernels) Name() string { return "blocked" }

// ParallelThreshold matches the naive kernel's: the fork-join cost is
// a property of the pool, not the inner loop.
func (blockedKernels) ParallelThreshold() int { return 1 << 17 }

// packA copies the logical m×K left operand into pmr-row panels laid
// out k-major — panel p holds rows [p·pmr, p·pmr+pmr) interleaved as
// dst[(p·K+k)·pmr+r] — so the micro-kernel reads pmr operands from one
// cache line per k step. pmr is the panel height (the blocked kernel
// passes the fixed mr; the tuned kernel its per-shape MR). load(r, k)
// fetches logical A[r][k].
//
// The buffer comes from the scratch free list and may hold a previous
// call's panels, so the pad rows past m are written as zero here on
// purpose: the micro-kernel runs the full pmr rows, and zero padding
// keeps those lanes finite (+0/−0 products never change a finite
// accumulator, and the masked store drops them). The caller returns the
// buffer with putScratch once its GEMM is done.
func packA(m, K, pmr int, threshold int, load func(r, k int) float64) []float64 {
	panels := (m + pmr - 1) / pmr
	dst := getScratch(panels * K * pmr)
	parGate(threshold, panels, m*K, func(p int) {
		base := p * K * pmr
		for r := 0; r < pmr; r++ {
			row := p*pmr + r
			di := base + r
			if row >= m {
				zeroLane(dst, di, K, pmr)
				continue
			}
			for k := 0; k < K; k++ {
				dst[di] = load(row, k)
				di += pmr
			}
		}
	})
	return dst
}

// packB copies the logical K×n right operand into pnr-column panels
// laid out k-major: dst[(q·K+k)·pnr+c] = B[k][q·pnr+c]. pnr is the
// panel width. load(k, c) fetches logical B[k][c]. Like packA it draws
// a recycled buffer and writes the pad columns past n as zero itself.
func packB(n, K, pnr int, threshold int, load func(k, c int) float64) []float64 {
	panels := (n + pnr - 1) / pnr
	dst := getScratch(panels * K * pnr)
	parGate(threshold, panels, n*K, func(q int) {
		base := q * K * pnr
		for c := 0; c < pnr; c++ {
			col := q*pnr + c
			di := base + c
			if col >= n {
				zeroLane(dst, di, K, pnr)
				continue
			}
			for k := 0; k < K; k++ {
				dst[di] = load(k, col)
				di += pnr
			}
		}
	})
	return dst
}

// zeroLane zeroes one pad row (or column) of a k-major panel: K
// elements from dst[di] at the given stride.
func zeroLane(dst []float64, di, K, stride int) {
	for k := 0; k < K; k++ {
		dst[di] = 0
		di += stride
	}
}

// microKernel computes one mr×nr output tile as dot products over the
// packed panels: rows come from ap (an mr-row panel), columns from bp
// (an nr-column panel), k runs ascending with one scalar accumulator
// per element. rows/cols mask the store for edge tiles; the arithmetic
// always runs the full mr×nr (padding lanes are zero).
// The k loop is unrolled ×4: each accumulator still receives exactly
// one product per k step in ascending k order (the unroll widens the
// loop body, not the addition tree), so the result is bit-identical to
// the rolled loop while amortizing loop control and bounds checks.
func microKernel(ap, bp []float64, K int, dst []float64, ldc, rows, cols int) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	p := 0
	for ; p+4 <= K; p += 4 {
		a := ap[2*p : 2*p+8]
		b := bp[4*p : 4*p+16]
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
		a0, a1 = a[2], a[3]
		b0, b1, b2, b3 = b[4], b[5], b[6], b[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a0, a1 = a[4], a[5]
		b0, b1, b2, b3 = b[8], b[9], b[10], b[11]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a0, a1 = a[6], a[7]
		b0, b1, b2, b3 = b[12], b[13], b[14], b[15]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
	}
	for ; p < K; p++ {
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
	if rows >= mr && cols >= nr { // interior tile: straight stores
		d0 := dst[:4]
		d1 := dst[ldc : ldc+4]
		d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
		d1[0], d1[1], d1[2], d1[3] = c10, c11, c12, c13
		return
	}
	acc := [mr][nr]float64{
		{c00, c01, c02, c03},
		{c10, c11, c12, c13},
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			dst[r*ldc+c] = acc[r][c]
		}
	}
}

// gemmTile fills the rows×cols output region starting at dst (leading
// dimension ldc) from the packed panel ranges. apack's first panel is
// the tile's first mr rows; bpack's first panel its first nr columns.
// Serial and fixed-order: callers decide the parallel decomposition.
func gemmTile(apack, bpack []float64, K, rows, cols int, dst []float64, ldc int) {
	for jp := 0; jp < cols; jp += nr {
		bp := bpack[(jp/nr)*K*nr:]
		jw := min(nr, cols-jp)
		for ip := 0; ip < rows; ip += mr {
			ap := apack[(ip/mr)*K*mr:]
			microKernel(ap, bp, K, dst[ip*ldc+jp:], ldc, min(mr, rows-ip), jw)
		}
	}
}

// blockedGemm runs the 2-D row×column-block decomposition over the
// packed operands: the output splits into blockM×blockN tiles handed
// to the pool as a flattened grid (parallel.For2D). Small products run
// the same tile loop serially.
func blockedGemm(apack, bpack []float64, m, n, K, threshold int) *Tensor {
	out := New(m, n)
	mt := (m + blockM - 1) / blockM
	nt := (n + blockN - 1) / blockN
	tile := func(ti, tj int) {
		i0, j0 := ti*blockM, tj*blockN
		rows := min(blockM, m-i0)
		cols := min(blockN, n-j0)
		gemmTile(apack[(i0/mr)*K*mr:], bpack[(j0/nr)*K*nr:], K, rows, cols, out.Data[i0*n+j0:], n)
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

// blockedGemmOp packs both operands, runs the blocked engine and
// recycles the packs; the three GEMM entry points differ only in their
// load closures.
func blockedGemmOp(m, n, K int, loadA func(r, k int) float64, loadB func(k, c int) float64, threshold int) *Tensor {
	apack := packA(m, K, mr, threshold, loadA)
	bpack := packB(n, K, nr, threshold, loadB)
	out := blockedGemm(apack, bpack, m, n, K, threshold)
	putScratch(apack)
	putScratch(bpack)
	return out
}

func (bk blockedKernels) MatMul(a, b *Tensor) *Tensor {
	m, K := a.shape[0], a.shape[1]
	n := b.shape[1]
	ad, bd := a.Data, b.Data
	return blockedGemmOp(m, n, K,
		func(r, k int) float64 { return ad[r*K+k] },
		func(k, c int) float64 { return bd[k*n+c] },
		bk.ParallelThreshold())
}

func (bk blockedKernels) MatMulT(a, b *Tensor) *Tensor {
	m, K := a.shape[0], a.shape[1]
	n := b.shape[0] // b is n×K; logical B = bᵀ (K×n)
	ad, bd := a.Data, b.Data
	return blockedGemmOp(m, n, K,
		func(r, k int) float64 { return ad[r*K+k] },
		func(k, c int) float64 { return bd[c*K+k] },
		bk.ParallelThreshold())
}

func (bk blockedKernels) TMatMul(a, b *Tensor) *Tensor {
	K, m := a.shape[0], a.shape[1] // a is K×m; logical A = aᵀ (m×K)
	n := b.shape[1]
	ad, bd := a.Data, b.Data
	return blockedGemmOp(m, n, K,
		func(r, k int) float64 { return ad[k*m+r] },
		func(k, c int) float64 { return bd[k*n+c] },
		bk.ParallelThreshold())
}

// MatVec and Outer have no k-reuse to block for, so the blocked kernel
// shares the naive loop bodies; the win here is that both now route
// through the parallel gate instead of always running serial.
func (bk blockedKernels) MatVec(a, v *Tensor) *Tensor {
	return gatedMatVec(bk.ParallelThreshold(), a, v)
}

func (bk blockedKernels) Outer(a, b *Tensor) *Tensor {
	return gatedOuter(bk.ParallelThreshold(), a, b)
}

// Conv2D is a blocked im2col-GEMM: the (n·oh·ow)×(c·k·k) column matrix
// is never materialized (see chunkedConv2D).
func (bk blockedKernels) Conv2D(x, weight *Tensor, p Conv2DParams) *Tensor {
	return chunkedConv2D(x, weight, p, mr, nr, bk.ParallelThreshold(), gemmTile)
}

// Conv2DWeightGrad runs the weight-gradient GEMM G·Cols with both
// operands packed straight from NCHW (see packConvGradA/packIm2ColB):
// the same panels blocked.TMatMul(NCHWToMat(g), Im2Col(x)) would
// build, without the two intermediate matrices.
func (bk blockedKernels) Conv2DWeightGrad(x, g *Tensor, p Conv2DParams) *Tensor {
	t := bk.ParallelThreshold()
	m, n, K := convGradDims(x, g, p)
	apack := packConvGradA(g, mr, t)
	bpack := packIm2ColB(x, p, nr, t)
	out := blockedGemm(apack, bpack, m, n, K, t)
	putScratch(apack)
	putScratch(bpack)
	return out
}

// tileFunc is the serial tile walk of a GEBP engine (gemmTile, or
// tunedTile bound to its config).
type tileFunc func(apack, bpack []float64, K, rows, cols int, dst []float64, ldc int)

// chunkedConv2D is the convolution both GEBP engines run. Each task
// unfolds a chunk of output pixels straight into packed pmr-row panels
// (unfoldRows), multiplies them against the once-packed pnr-column
// weight panels with tile, and scatters the product into NCHW — so the
// working set per task is one chunk, not the whole unfolding. The
// chunk length rounds convRowChunk up to a multiple of pmr so chunks
// pack into whole panels. Every pack and chunk buffer is recycled
// scratch, returned as soon as its chunk (or, for the weight panels,
// the whole convolution) is done.
func chunkedConv2D(x, weight *Tensor, p Conv2DParams, pmr, pnr, threshold int, tile tileFunc) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	outC := weight.shape[0]
	oh, ow := p.OutDim(h), p.OutDim(w)
	if oh <= 0 || ow <= 0 {
		panic("tensor: Conv2D output would be empty")
	}
	K := c * p.Kernel * p.Kernel
	rows := n * oh * ow
	plane := oh * ow
	chunk := (convRowChunk + pmr - 1) / pmr * pmr
	wd := weight.Data // outC×K row-major; logical B = wmatᵀ (K×outC)
	wpack := packB(outC, K, pnr, threshold, func(k, oc int) float64 { return wd[oc*K+k] })

	out := New(n, outC, oh, ow)
	chunks := (rows + chunk - 1) / chunk
	parGate(threshold, chunks, rows*K*outC, func(ci int) {
		lo := ci * chunk
		cr := min(rows, lo+chunk) - lo
		apack := getScratch((cr + pmr - 1) / pmr * K * pmr)
		unfoldRows(apack, x, p, lo, cr, pmr)
		scratch := getScratch(cr * outC) // every element written by tile
		tile(apack, wpack, K, cr, outC, scratch, outC)
		for r := 0; r < cr; r++ {
			row := lo + r
			img, pix := row/plane, row%plane
			src := scratch[r*outC : (r+1)*outC]
			for oc := 0; oc < outC; oc++ {
				out.Data[(img*outC+oc)*plane+pix] = src[oc]
			}
		}
		putScratch(apack)
		putScratch(scratch)
	})
	putScratch(wpack)
	return out
}

// unfoldRows writes im2col rows [lo, lo+cr) of x into dst as pmr-row
// k-major panels (packA's layout, K = c·k·k). Padded taps and the pad
// rows past cr in the last panel are written as zero, so dst may be
// dirty recycled scratch.
func unfoldRows(dst []float64, x *Tensor, p Conv2DParams, lo, cr, pmr int) {
	c, h, w := x.shape[1], x.shape[2], x.shape[3]
	oh, ow := p.OutDim(h), p.OutDim(w)
	kk := p.Kernel
	K := c * kk * kk
	plane := oh * ow
	for r := 0; r < cr; r++ {
		row := lo + r
		img := row / plane
		oy := row / ow % oh
		ox := row % ow
		di := (r/pmr)*K*pmr + r%pmr
		for ch := 0; ch < c; ch++ {
			xbase := (img*c + ch) * h * w
			for ky := 0; ky < kk; ky++ {
				iy := oy*p.Stride - p.Padding + ky
				for kx := 0; kx < kk; kx++ {
					ix := ox*p.Stride - p.Padding + kx
					v := 0.0
					if iy >= 0 && iy < h && ix >= 0 && ix < w {
						v = x.Data[xbase+iy*w+ix]
					}
					dst[di] = v
					di += pmr
				}
			}
		}
	}
	for r := cr; r%pmr != 0; r++ {
		zeroLane(dst, (r/pmr)*K*pmr+r%pmr, K, pmr)
	}
}

// convGradDims returns the weight-gradient GEMM's m×n output and inner
// K: outC × (c·k·k) over the n·oh·ow output pixels.
func convGradDims(x, g *Tensor, p Conv2DParams) (m, n, K int) {
	return g.shape[1], x.shape[1] * p.Kernel * p.Kernel, g.shape[0] * g.shape[2] * g.shape[3]
}

// packConvGradA packs the NCHW output gradient g as the weight-gradient
// GEMM's left operand — logical A[oc][img·oh·ow+pix] = g[img][oc][pix],
// i.e. NCHWToMat(g)ᵀ — into packA's pmr-row panels, copying each
// channel plane contiguously instead of materializing NCHWToMat(g).
func packConvGradA(g *Tensor, pmr, threshold int) []float64 {
	n, outC := g.shape[0], g.shape[1]
	plane := g.shape[2] * g.shape[3]
	K := n * plane
	panels := (outC + pmr - 1) / pmr
	dst := getScratch(panels * K * pmr)
	parGate(threshold, panels, outC*K, func(q int) {
		base := q * K * pmr
		for r := 0; r < pmr; r++ {
			oc := q*pmr + r
			di := base + r
			if oc >= outC {
				zeroLane(dst, di, K, pmr)
				continue
			}
			for img := 0; img < n; img++ {
				for _, v := range g.Data[(img*outC+oc)*plane : (img*outC+oc+1)*plane] {
					dst[di] = v
					di += pmr
				}
			}
		}
	})
	return dst
}

// packIm2ColB unfolds x into the weight-gradient GEMM's right operand —
// logical B = Im2Col(x), (n·oh·ow)×(c·k·k) — directly in packB's
// pnr-column panels. Each panel column is one (ch, ky, kx) tap walked
// over every output pixel; padded taps and pad columns are written as
// zero.
func packIm2ColB(x *Tensor, p Conv2DParams, pnr, threshold int) []float64 {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := p.OutDim(h), p.OutDim(w)
	kk := p.Kernel
	ncol := c * kk * kk
	K := n * oh * ow
	panels := (ncol + pnr - 1) / pnr
	dst := getScratch(panels * K * pnr)
	parGate(threshold, panels, ncol*K, func(q int) {
		base := q * K * pnr
		for cc := 0; cc < pnr; cc++ {
			col := q*pnr + cc
			di := base + cc
			if col >= ncol {
				zeroLane(dst, di, K, pnr)
				continue
			}
			ch, ky, kx := col/(kk*kk), col/kk%kk, col%kk
			for img := 0; img < n; img++ {
				xbase := (img*c + ch) * h * w
				for oy := 0; oy < oh; oy++ {
					iy := oy*p.Stride - p.Padding + ky
					inY := iy >= 0 && iy < h
					for ox := 0; ox < ow; ox++ {
						ix := ox*p.Stride - p.Padding + kx
						v := 0.0
						if inY && ix >= 0 && ix < w {
							v = x.Data[xbase+iy*w+ix]
						}
						dst[di] = v
						di += pnr
					}
				}
			}
		}
	})
	return dst
}
