package main

import (
	"math"
	"testing"
)

// Before any pass the factors leave a wall figure alone; after a pause
// they are the reference times over the measured medians.
func TestCalibrationFactors(t *testing.T) {
	var none *calibrator
	if none.computeFactor() != 1 || none.fitFactor() != 1 {
		t.Fatal("a nil calibrator must scale by 1")
	}
	none.pause() // does nothing

	c := newCalibrator()
	if c.computeFactor() != 1 || c.fitFactor() != 1 {
		t.Fatal("a calibrator without passes must scale by 1")
	}
	c.pause()
	if len(c.compute) != calibPause || len(c.memory) != calibPause {
		t.Fatalf("a pause timed %d/%d parts, want %d", len(c.compute), len(c.memory), calibPause)
	}
	c.compute, c.memory = []float64{2, 4, 3}, []float64{1, 5, 2}
	if got, want := c.computeFactor(), calibComputeRef/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("computeFactor = %v, want %v", got, want)
	}
	if got, want := c.fitFactor(), (calibComputeRef+calibMemoryRef)/5; math.Abs(got-want) > 1e-12 {
		t.Errorf("fitFactor = %v, want %v", got, want)
	}
}

// The compute part builds the RBF Gram of its fixed data: unit diagonal,
// symmetric, entries in (0, 1].
func TestCalibrationGram(t *testing.T) {
	c := newCalibrator()
	g := make([]float64, calibN*calibN)
	c.gram(g)
	for i := 0; i < calibN; i += 97 {
		if g[i*calibN+i] != 1 {
			t.Fatalf("diagonal %d = %v", i, g[i*calibN+i])
		}
		for j := 0; j < calibN; j += 89 {
			v := g[i*calibN+j]
			if v <= 0 || v > 1 || v != g[j*calibN+i] {
				t.Fatalf("entry (%d,%d) = %v, mirror %v", i, j, v, g[j*calibN+i])
			}
		}
	}
}
