package main

import (
	"bytes"
	"fmt"

	"repro"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// input is one generated dataset in the only form the program sees: CSV
// bytes plus the schema that maps them onto a dataset.
type input struct {
	name   string
	csv    []byte
	schema dataset.Schema
}

// biometric is the serve-mixed generator: the paper's four-facet
// identification data (face, fingerprint, eeg, iris; d = 18 at the default
// facet sizes).
func biometric(n int, seed int64) *dataset.Dataset {
	cfg := iotml.DefaultBiometricConfig()
	cfg.N = n
	return iotml.SyntheticBiometric(cfg, iotml.NewRNG(seed))
}

// twoClass is the fit-align / fit-dist generator: n rows of 7 features, the
// first 3 shifted by ±0.8 with the ±1 label and the last 4 pure noise.
func twoClass(n int, seed int64) *dataset.Dataset {
	const d, informative = 7, 3
	rng := stats.NewRNG(seed)
	out := &dataset.Dataset{}
	for i := 0; i < n; i++ {
		y := 1
		if rng.Float64() < 0.5 {
			y = -1
		}
		row := make([]float64, d)
		for j := range row {
			if j < informative {
				row[j] = float64(y)*0.8 + rng.NormFloat64()*0.5
			} else {
				row[j] = rng.NormFloat64()
			}
		}
		out.X = append(out.X, row)
		out.Y = append(out.Y, y)
	}
	return out
}

// encode renders d as the CSV input the benchmark hands to ReadCSV.
func encode(name string, d *dataset.Dataset) (input, error) {
	var b bytes.Buffer
	if err := iotml.WriteCSV(&b, d); err != nil {
		return input{}, fmt.Errorf("encoding %s: %w", name, err)
	}
	return input{name: name, csv: b.Bytes(), schema: d.CSVSchema()}, nil
}

// subSeed derives the seed of the i-th generated object of one stream from
// the run's workload seed, so every input is a pure function of --seed.
func subSeed(seed int64, stream, i int) int64 {
	return seed*1_000_003 + int64(stream)*10_007 + int64(i)
}
