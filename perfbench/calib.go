package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// A shared host changes speed over minutes: on a 2-vCPU Xeon VM the same
// fit-align fit took 1.15 s and 0.57 s half an hour apart, and every
// CPU-bound figure moved with it. So the benchmark times a calibration
// pass of its own, calling no program code, between measurements, and
// reports CPU-bound end-to-end metrics in reference units: the wall figure
// times the reference pass time over the run's median pass time. The wall
// figures are reported beside them.
//
// A pass has two parts, timed apart, because work does not speed up
// alike: between that VM's slow and fast states a compute-bound pass ran
// 2.3–2.6× faster, a 1-row prediction 2.2–2.7× and a whole fit 1.9–2.3×.
// A fit also streams n×n matrices through memory, which speeds up less.
// Predictions are scaled by the compute part alone; fits and fit set-ups
// by the whole pass, of which the memory part takes about 40%. The
// reference times are the parts' medians over 30 runs on that VM in its
// fast state, so reference units read as wall units there.
const (
	calibN          = 1000     // rows of the calibration data, as fit-align's datasets
	calibD          = 7        // features per row
	calibStream     = 32 << 20 // bytes the memory part sweeps
	calibSweeps     = 3        // read-write sweeps of the memory part
	calibComputeRef = 5.3      // ms of the compute part on the reference machine
	calibMemoryRef  = 3.9      // ms of the memory part on the reference machine
	calibPause      = 3        // passes timed at each pause between measurements
)

// calibrator times a fixed two-part pass on both cores: an n×n RBF Gram
// of fixed data (exp-bound), then read-write sweeps over a 32 MB buffer
// (memory-bound).
type calibrator struct {
	x       []float64 // calibN × calibD, row-major, fixed
	compute []float64 // ms per compute part
	memory  []float64 // ms per memory part
}

func newCalibrator() *calibrator {
	c := &calibrator{x: make([]float64, calibN*calibD)}
	s := uint64(0x9e3779b97f4a7c15)
	for i := range c.x {
		s = s*6364136223846793005 + 1442695040888963407
		c.x[i] = float64(s>>11)/(1<<53)*2 - 1
	}
	return c
}

// pause times calibPause passes from a collected heap. The buffers are
// allocated per pause, so they do not stay resident through the phase
// whose peak memory is measured. A nil calibrator does nothing.
func (c *calibrator) pause() {
	if c == nil {
		return
	}
	runtime.GC()
	gram := make([]float64, calibN*calibN)
	buf := make([]float64, calibStream/8)
	for i := 0; i < calibPause; i++ {
		t0 := time.Now()
		c.gram(gram)
		t1 := time.Now()
		sweep(buf)
		c.compute = append(c.compute, ms(t1.Sub(t0)))
		c.memory = append(c.memory, ms(time.Since(t1)))
	}
}

// onBoth runs work(g) for g = 0, 1 on two goroutines.
func onBoth(work func(g int)) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			work(g)
		}(g)
	}
	wg.Wait()
}

// gram fills out with the RBF Gram of the fixed data, rows split by parity.
func (c *calibrator) gram(out []float64) {
	onBoth(func(g int) {
		for i := g; i < calibN; i += 2 {
			xi := c.x[i*calibD : (i+1)*calibD]
			row := out[i*calibN : (i+1)*calibN]
			for j := range row {
				xj := c.x[j*calibD : (j+1)*calibD]
				d2 := 0.0
				for k, v := range xi {
					d := v - xj[k]
					d2 += d * d
				}
				row[j] = math.Exp(-d2)
			}
		}
	})
}

// sweep reads and rewrites buf calibSweeps times, one half per goroutine.
func sweep(buf []float64) {
	onBoth(func(g int) {
		half := buf[g*len(buf)/2 : (g+1)*len(buf)/2]
		for r := 0; r < calibSweeps; r++ {
			for i := range half {
				half[i] = half[i]*0.5 + 1
			}
		}
	})
}

// computeFactor scales an exp-bound wall figure (a prediction) to
// reference units. It is 1 before any pass.
func (c *calibrator) computeFactor() float64 {
	if c == nil || len(c.compute) == 0 {
		return 1
	}
	return calibComputeRef / median(c.compute)
}

// fitFactor scales a fit's wall figure to reference units. It is 1 before
// any pass.
func (c *calibrator) fitFactor() float64 {
	if c == nil || len(c.compute) == 0 {
		return 1
	}
	return (calibComputeRef + calibMemoryRef) / (median(c.compute) + median(c.memory))
}
