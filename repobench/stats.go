package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail is the highest of the usual percentiles that still has at least
// ten samples beyond it.
type tail struct {
	Pct    float64
	Value  float64
	N      int // samples
	Beyond int // samples above the percentile
}

func (t tail) String() string {
	if t.N == 0 {
		return "n/a"
	}
	return fmt.Sprintf("p%g=%.3f (n=%d, %d beyond)", t.Pct, t.Value, t.N, t.Beyond)
}

func tailOf(xs []float64) tail {
	for _, pct := range []float64{99.9, 99, 95, 90, 75, 50} {
		beyond := int(float64(len(xs)) * (1 - pct/100))
		if beyond >= 10 {
			return tail{Pct: pct, Value: quantile(xs, pct/100), N: len(xs), Beyond: beyond}
		}
	}
	return tail{N: len(xs)}
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeSetup returns the median, in seconds, of reps samples, each the
// mean time of batch calls of fn started from a collected heap.
// Batching keeps a sub-microsecond set-up above the clock's resolution.
func timeSetup(reps, batch int, fn func() error) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		for j := 0; j < batch; j++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		xs = append(xs, time.Since(start).Seconds()/float64(batch))
	}
	return median(xs), nil
}
