// Batch: schedule a mixed job queue (CPU-dominant, GPU-dominant, and
// balanced jobs) on a traditional node architecture and an equal-hardware
// CDI machine — the system-efficiency story behind the paper's
// introduction, quantified as makespan, queueing, and GPU energy.
//
//	go run ./examples/batch [-jobs 40] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"

	cdi "repro"
)

func main() {
	njobs := flag.Int("jobs", 40, "jobs in the queue")
	seed := flag.Int64("seed", 1, "workload seed")
	nodes := flag.Int("nodes", 8, "nodes (24 cores, 2 GPUs each traditionally)")
	flag.Parse()

	jobs, err := cdi.WorkloadMix(*njobs, 24, *seed)
	if err != nil {
		log.Fatal(err)
	}
	cmp, err := cdi.CompareBatch(jobs, *nodes, 24, 2, cdi.Backfill)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("== %d mixed jobs on %d nodes (%d cores, %d GPUs total) ==\n",
		*njobs, *nodes, *nodes*24, *nodes*2)
	print := func(name string, r cdi.BatchResult) {
		fmt.Printf("%-13s makespan %-10v mean wait %-10v max wait %-10v GPU energy %.1f Wh\n",
			name, r.Makespan, r.MeanWait, r.MaxWait, r.GPUEnergyWh)
	}
	print("traditional:", cmp.Traditional)
	print("cdi:", cmp.CDI)

	speedup := float64(cmp.Traditional.Makespan) / float64(cmp.CDI.Makespan)
	fmt.Printf("\nCDI finishes the queue %.2f× sooner", speedup)
	if cmp.Traditional.GPUEnergyWh > 0 {
		saved := 1 - cmp.CDI.GPUEnergyWh/cmp.Traditional.GPUEnergyWh
		fmt.Printf(" and saves %.1f%% of GPU energy", saved*100)
	}
	fmt.Println(" — trapped GPUs power off and recompose.")
}
