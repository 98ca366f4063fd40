package core

import (
	"context"
	"sync"
	"testing"

	"bebop/internal/pipeline"
	"bebop/internal/workload"
)

// TestProcessorReuseDeterministic exercises the processor pool the way
// engine workers do — many concurrent Run calls cycling processors
// through acquire/Reset/release — and checks every repetition of a job
// yields the identical result. This is the contract that lets the pool
// exist at all, and under -race it also proves pooled processors are
// never shared between two in-flight jobs.
func TestProcessorReuseDeterministic(t *testing.T) {
	jobs := []struct {
		src workload.Source
		mk  ConfigFactory
	}{
		{sampleProfile(t, "gcc"), Baseline()},
		{sampleProfile(t, "swim"), BaselineVP("D-VTAGE")},
		{sampleProfile(t, "mcf"), EOLEBeBoP("Medium", MediumConfig())},
	}
	const reps = 4
	results := make([][]pipeline.Result, len(jobs))
	var wg sync.WaitGroup
	for j := range jobs {
		results[j] = make([]pipeline.Result, reps)
		for r := 0; r < reps; r++ {
			wg.Add(1)
			go func(j, r int) {
				defer wg.Done()
				res, err := RunSourceCtx(context.Background(), jobs[j].src, 3000, 6000, jobs[j].mk)
				if err != nil {
					t.Error(err)
					return
				}
				results[j][r] = res
			}(j, r)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for j := range jobs {
		for r := 1; r < reps; r++ {
			if results[j][r] != results[j][0] {
				t.Fatalf("%s: repetition %d diverged:\n%+v\nvs\n%+v",
					jobs[j].src.Name(), r, results[j][r], results[j][0])
			}
		}
	}
}
