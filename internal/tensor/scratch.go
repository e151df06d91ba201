package tensor

import (
	"math/bits"
	"runtime"
)

// Pack scratch free list. The GEBP engines pack their operands into
// panels that live for exactly one GEMM, conv chunk or conv call;
// allocating them fresh made kernel scratch the largest share of a
// suite pass's allocated bytes. getScratch/putScratch recycle them.
//
// Buffers are kept by power-of-two size class, at most GOMAXPROCS per
// class (one per core that can be inside a kernel at once), and only
// for classes up to 1<<maxScratchClass float64s (128 KiB). Larger
// requests fall through to make and are dropped on put, so the memory
// the free list retains stays under ~256 KiB × GOMAXPROCS: keeping
// every class measurably raised peak RSS, while the small classes carry
// most of the recycled bytes.
//
// A recycled buffer holds whatever its last user wrote. Every caller
// writes each element it later reads — padding lanes included — so no
// buffer is cleared on get.
const maxScratchClass = 14

var scratchFree [maxScratchClass + 1]chan []float64

// scratchPutHook, when set, sees every buffer as it goes back on the
// free list. Tests use it to poison buffers and prove that no kernel
// reads a lane it did not write.
var scratchPutHook func(buf []float64)

func init() {
	per := runtime.GOMAXPROCS(0)
	for c := range scratchFree {
		scratchFree[c] = make(chan []float64, per)
	}
}

// scratchClass is the smallest c with 1<<c >= n; n = 0 maps past every
// kept class.
func scratchClass(n int) int { return bits.Len(uint(n - 1)) }

// getScratch returns a length-n buffer with unspecified contents.
func getScratch(n int) []float64 {
	c := scratchClass(n)
	if c > maxScratchClass {
		return make([]float64, n)
	}
	select {
	case b := <-scratchFree[c]:
		return b[:n]
	default:
		return make([]float64, n, 1<<c)
	}
}

// putScratch hands a getScratch buffer back. The caller must not touch
// it afterwards. Buffers of an unkept class, or full classes, are left
// to the garbage collector.
func putScratch(b []float64) {
	c := scratchClass(cap(b))
	if c > maxScratchClass || cap(b) != 1<<c {
		return
	}
	b = b[:cap(b)]
	if scratchPutHook != nil {
		scratchPutHook(b)
	}
	select {
	case scratchFree[c] <- b:
	default:
	}
}
