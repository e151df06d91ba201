package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"aibench/internal/telemetry"
)

func TestScratchClassesAndBound(t *testing.T) {
	for _, c := range []struct{ n, class int }{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1 << 14, 14}, {1<<14 + 1, 15}} {
		if got := scratchClass(c.n); got != c.class {
			t.Errorf("scratchClass(%d) = %d, want %d", c.n, got, c.class)
		}
	}
	for _, n := range []int{1, 3, 100, 1 << 14} {
		b := getScratch(n)
		if len(b) != n || cap(b) != 1<<scratchClass(n) {
			t.Fatalf("getScratch(%d): len %d cap %d", n, len(b), cap(b))
		}
		putScratch(b)
	}
	if scratchClass(0) <= maxScratchClass || len(getScratch(0)) != 0 {
		t.Fatal("an empty request must bypass the free list")
	}
	big := getScratch(1<<14 + 1)
	if cap(big) != 1<<14+1 {
		t.Fatalf("an unkept class was rounded up to cap %d", cap(big))
	}
	putScratch(big) // dropped, not kept

	// Fill every kept class past its bound: nothing beyond GOMAXPROCS
	// buffers per class may stay on the list.
	per := runtime.GOMAXPROCS(0)
	for c := range scratchFree {
		for i := 0; i < per+2; i++ {
			putScratch(make([]float64, 1<<c))
		}
		if got := len(scratchFree[c]); got > per {
			t.Fatalf("class %d holds %d buffers, bound %d", c, got, per)
		}
	}
	if len(scratchFree) != maxScratchClass+1 {
		t.Fatalf("%d kept classes, want %d", len(scratchFree), maxScratchClass+1)
	}
}

// poisonScratch replaces every buffer on the free list with an all-NaN
// one and makes putScratch NaN-fill each buffer it takes back, for the
// rest of the test. A kernel that reads any lane of a recycled buffer
// it did not write in the same call — a pad row or column, a padded
// conv tap, a row past the last chunk — then yields NaN instead of the
// stale (or zero) value it happened to find.
func poisonScratch(t *testing.T) {
	t.Helper()
	nanFill := func(b []float64) {
		for i := range b {
			b[i] = math.NaN()
		}
	}
	prev := scratchPutHook
	scratchPutHook = nanFill
	t.Cleanup(func() { scratchPutHook = prev })
	for c := range scratchFree {
	drain:
		for {
			select {
			case <-scratchFree[c]:
			default:
				break drain
			}
		}
		for i := 0; i < cap(scratchFree[c]); i++ {
			putScratch(make([]float64, 1<<c))
		}
	}
}

// raggedConv is a convolution geometry whose output pixel count leaves
// an odd final chunk or panel, with padded taps.
type raggedConv struct {
	x, w [4]int
	p    Conv2DParams
}

var raggedConvs = []raggedConv{
	{[4]int{1, 3, 13, 11}, [4]int{5, 3, 3, 3}, Conv2DParams{Kernel: 3, Stride: 1, Padding: 1}}, // 143 pixels: final chunk of 15
	{[4]int{3, 2, 10, 9}, [4]int{7, 2, 3, 3}, Conv2DParams{Kernel: 3, Stride: 2, Padding: 1}},  // 75 pixels
	{[4]int{2, 3, 9, 7}, [4]int{3, 3, 5, 5}, Conv2DParams{Kernel: 5, Stride: 2, Padding: 2}},   // 40 pixels, mostly padding
	{[4]int{1, 5, 7, 7}, [4]int{9, 5, 1, 1}, Conv2DParams{Kernel: 1, Stride: 1, Padding: 0}},   // 49 pixels, k = 1
}

// TestDirtyScratchBitwise runs the GEBP kernels — blocked, and tuned
// under its default and two adversarial tunings — on ragged shapes
// (m, n and K off every MR/NR multiple, padded convs, odd final
// chunks) with every recycled buffer poisoned, and demands bitwise
// equality with the naive oracle, which never touches the free list.
func TestDirtyScratchBitwise(t *testing.T) {
	poisonScratch(t)
	naive, _ := kernelPair(t)
	tunings := []Tuning{
		DefaultTuning(),
		{
			Threshold: 1,
			Square:    TileConfig{MR: 4, NR: 4, KUnroll: 2, BlockM: 32, BlockN: 32},
			Skinny:    TileConfig{MR: 2, NR: 8, KUnroll: 2, BlockM: 64, BlockN: 32},
			Fat:       TileConfig{MR: 2, NR: 4, KUnroll: 1, BlockM: 32, BlockN: 64},
			Conv:      TileConfig{MR: 4, NR: 4, KUnroll: 1, BlockM: 32, BlockN: 32},
		},
		{
			Threshold: 1 << 30,
			Square:    TileConfig{MR: 2, NR: 8, KUnroll: 1, BlockM: 128, BlockN: 64},
			Skinny:    TileConfig{MR: 4, NR: 4, KUnroll: 1, BlockM: 32, BlockN: 32},
			Fat:       TileConfig{MR: 4, NR: 4, KUnroll: 2, BlockM: 64, BlockN: 128},
			Conv:      TileConfig{MR: 2, NR: 8, KUnroll: 2, BlockM: 64, BlockN: 64},
		},
	}
	rng := rand.New(rand.NewSource(83))
	for ti, tuning := range tunings {
		withTuning(t, tuning, fmt.Sprintf("dirty-%d", ti))
		for _, kern := range optimizedKernels(t) {
			for _, dims := range [][3]int{{1, 1, 1}, {5, 7, 3}, {3, 129, 63}, {65, 63, 66}, {31, 2, 129}, {129, 7, 130}} {
				m, k, n := dims[0], dims[1], dims[2]
				a := Randn(rng, 0, 1, m, k)
				b := Randn(rng, 0, 1, k, n)
				bt := Randn(rng, 0, 1, n, k)
				at := Randn(rng, 0, 1, k, m)
				name := func(op string) string { return fmt.Sprintf("%s tuning %d %s %v", kern.Name(), ti, op, dims) }
				// Twice each, so the second call draws the first's
				// poisoned buffers.
				for rep := 0; rep < 2; rep++ {
					bitwiseEqual(t, name("MatMul"), kern.MatMul(a, b), naive.MatMul(a, b))
					bitwiseEqual(t, name("MatMulT"), kern.MatMulT(a, bt), naive.MatMulT(a, bt))
					bitwiseEqual(t, name("TMatMul"), kern.TMatMul(at, b), naive.TMatMul(at, b))
				}
			}
			for ci, c := range raggedConvs {
				x := Randn(rng, 0, 1, c.x[:]...)
				w := Randn(rng, 0, 1, c.w[:]...)
				y := naive.Conv2D(x, w, c.p)
				g := Randn(rng, 0, 1, y.Shape()...)
				name := func(op string) string { return fmt.Sprintf("%s tuning %d %s conv %d", kern.Name(), ti, op, ci) }
				for rep := 0; rep < 2; rep++ {
					bitwiseEqual(t, name("Conv2D"), kern.Conv2D(x, w, c.p), y)
					bitwiseEqual(t, name("Conv2DWeightGrad"), kern.Conv2DWeightGrad(x, g, c.p), naive.Conv2DWeightGrad(x, g, c.p))
				}
			}
		}
	}
}

// TestScratchConcurrentCallers has several goroutines run GEMMs and
// convolutions through both GEBP kernels at once, sharing the free
// list, with poisoned recycling. Every result must still match the
// naive oracle bitwise; under -race this also proves no buffer is
// handed to two callers.
func TestScratchConcurrentCallers(t *testing.T) {
	poisonScratch(t)
	naive, _ := kernelPair(t)
	kerns := optimizedKernels(t)
	type job struct {
		a, b, x, w, g        *Tensor
		p                    Conv2DParams
		gemm, conv, wantGrad *Tensor
	}
	rng := rand.New(rand.NewSource(89))
	jobs := make([]job, 4)
	for i := range jobs {
		c := raggedConvs[i%len(raggedConvs)]
		j := job{
			a: Randn(rng, 0, 1, 33+i, 17), b: Randn(rng, 0, 1, 17, 29-i),
			x: Randn(rng, 0, 1, c.x[:]...), w: Randn(rng, 0, 1, c.w[:]...), p: c.p,
		}
		j.gemm = naive.MatMul(j.a, j.b)
		j.conv = naive.Conv2D(j.x, j.w, j.p)
		j.g = Randn(rng, 0, 1, j.conv.Shape()...)
		j.wantGrad = naive.Conv2DWeightGrad(j.x, j.g, j.p)
		jobs[i] = j
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				kern := kerns[(i+it)%len(kerns)]
				for _, c := range []struct {
					op        string
					got, want *Tensor
				}{
					{"MatMul", kern.MatMul(j.a, j.b), j.gemm},
					{"Conv2D", kern.Conv2D(j.x, j.w, j.p), j.conv},
					{"Conv2DWeightGrad", kern.Conv2DWeightGrad(j.x, j.g, j.p), j.wantGrad},
				} {
					for e := range c.got.Data {
						if math.Float64bits(c.got.Data[e]) != math.Float64bits(c.want.Data[e]) {
							errs <- fmt.Sprintf("caller %d %s %s: element %d = %v, want %v", i, kern.Name(), c.op, e, c.got.Data[e], c.want.Data[e])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// convGradGeometries sweeps stride, padding and k ∈ {1, 3, 5}.
func convGradGeometries() []raggedConv {
	var out []raggedConv
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				out = append(out, raggedConv{[4]int{2, 3, 9, 8}, [4]int{5, 3, k, k}, Conv2DParams{Kernel: k, Stride: stride, Padding: pad}})
			}
		}
	}
	return out
}

// TestConv2DWeightGradMatchesComposition demands that every kernel's
// Conv2DWeightGrad is bitwise the composition it replaces,
// TMatMul(NCHWToMat(g), Im2Col(x)) under the same kernel, and that all
// kernels agree with each other.
func TestConv2DWeightGradMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, c := range convGradGeometries() {
		x := Randn(rng, 0, 1, c.x[:]...)
		oh, ow := c.p.OutDim(c.x[2]), c.p.OutDim(c.x[3])
		g := Randn(rng, 0, 1, c.x[0], c.w[0], oh, ow)
		var first *Tensor
		for _, name := range KernelNames() {
			kern, _ := LookupKernels(name)
			want := kern.TMatMul(NCHWToMat(g), Im2Col(x, c.p))
			got := kern.Conv2DWeightGrad(x, g, c.p)
			label := fmt.Sprintf("%s k=%d stride=%d pad=%d", name, c.p.Kernel, c.p.Stride, c.p.Padding)
			if !got.SameShape(want) {
				t.Fatalf("%s: shape %v, want %v", label, got.Shape(), want.Shape())
			}
			bitwiseEqual(t, label, got, want)
			if first == nil {
				first = got
			}
			bitwiseEqual(t, label+" vs "+KernelNames()[0], got, first)
		}
	}
}

// TestConv2DWeightGradTelemetry checks that the fused op records
// exactly the kernel counters (calls and FLOPs per op) of the
// composition it replaces, so the deterministic telemetry plane does
// not move.
func TestConv2DWeightGradTelemetry(t *testing.T) {
	counters := func(fn func(x, g *Tensor, p Conv2DParams)) telemetry.CounterSet {
		tr := telemetry.Start("test")
		for _, c := range convGradGeometries() {
			x := Randn(rand.New(rand.NewSource(1)), 0, 1, c.x[:]...)
			g := New(c.x[0], c.w[0], c.p.OutDim(c.x[2]), c.p.OutDim(c.x[3]))
			fn(x, g, c.p)
		}
		trace, _ := tr.Stop()
		return trace.Counters
	}
	for _, name := range KernelNames() {
		prev := ActiveKernels().Name()
		if err := UseKernels(name); err != nil {
			t.Fatal(err)
		}
		before := counters(func(x, g *Tensor, p Conv2DParams) { TMatMul(NCHWToMat(g), Im2Col(x, p)) })
		after := counters(func(x, g *Tensor, p Conv2DParams) { Conv2DWeightGrad(x, g, p) })
		if err := UseKernels(prev); err != nil {
			t.Fatal(err)
		}
		if len(before.Kernel) != 1 || before.Kernel[0].Op != "tmatmul" {
			t.Fatalf("%s: composition counted %+v, want only tmatmul", name, before.Kernel)
		}
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: counters moved:\nbefore %+v\nafter  %+v", name, before, after)
		}
	}
}
