package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"seaice/internal/pool"
)

const (
	probecheckRounds = 20
	probecheckPhaseS = 2
)

// runProbecheck answers the question host normalisation rests on: does the
// code under test move the host probe? For each workload it cycles through
// three phases of a couple of seconds, short enough that the phases of one
// round see the same host state: idle (only the probe thread runs), spin
// (nproc goroutines run the benchmark's own probe kernel flat out) and
// loaded (the workload's window runs). It prints the probe's kernel time
// in each phase and, per round, loaded ÷ spin and loaded ÷ idle. Loaded ÷
// spin near 1 means the probe reads how the host treats busy vCPUs, whatever
// code keeps them busy. The committed output is PROBECHECK.txt. It returns
// the exit code.
func runProbecheck() int {
	nproc := runtime.NumCPU()
	pool.SetSharedWorkers(nproc)
	host := fingerprint()
	fmt.Printf("probecheck: %d rounds of %d s phases per workload; host nproc=%d %q %s\n",
		probecheckRounds, probecheckPhaseS, host.NProc, host.CPUModel, host.GoVersion)
	fmt.Printf("%-15s | %8s %8s %8s | %8s %8s %8s | %8s %8s %8s\n%-15s | %26s | %26s | %26s\n",
		"workload", "idle", "spin", "loaded", "q1", "median", "q3", "q1", "median", "q3",
		"", "probe kernel ms, medians", "loaded ÷ spin per round", "loaded ÷ idle per round")
	for _, name := range []string{"campaign-label", "campaign-train", "serve-scenes", "serve-tiles"} {
		if err := probecheckWorkload(name, nproc); err != nil {
			fmt.Fprintf(os.Stderr, "bench: probecheck %s: %v\n", name, err)
			return 1
		}
	}
	return 0
}

// spin keeps nproc goroutines busy with the probe kernel for d.
func spin(nproc int, d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				probeKernel(probeReps)
			}
		}()
	}
	wg.Wait()
}

func probecheckWorkload(name string, nproc int) error {
	// -seconds sizes what set-up prepares (campaign-train configures its
	// epochs there): the loaded phases' worth, and a second per round for
	// each phase's job count rounding up.
	p := params{workload: name, seed: 1, seconds: probecheckRounds * (probecheckPhaseS + 1), nproc: nproc}
	w := workloads[name](p)
	defer w.close()
	if err := w.setup(nil); err != nil {
		return err
	}
	probe := startHostProbe()
	defer probe.finish()
	var idle, spun, loaded, overSpin, overIdle []float64
	for round := 0; round < probecheckRounds; round++ {
		runtime.GC()
		t0 := time.Now()
		time.Sleep(probecheckPhaseS * time.Second)
		t1 := time.Now()
		spin(nproc, probecheckPhaseS*time.Second)
		t2 := time.Now()
		out, err := w.run(nil, probecheckPhaseS)
		if err != nil {
			return err
		}
		idleMs, _ := probe.meanBetween(t0, t1)
		spinMs, _ := probe.meanBetween(t1, t2)
		loadedMs, _ := probe.meanBetween(out.start, out.end)
		if idleMs == 0 || spinMs == 0 || loadedMs == 0 {
			return fmt.Errorf("round %d: a phase has no probe samples", round)
		}
		idle, spun, loaded = append(idle, idleMs), append(spun, spinMs), append(loaded, loadedMs)
		overSpin, overIdle = append(overSpin, loadedMs/spinMs), append(overIdle, loadedMs/idleMs)
	}
	s1, s3 := quartiles(overSpin)
	i1, i3 := quartiles(overIdle)
	fmt.Printf("%-15s | %8.4f %8.4f %8.4f | %8.3f %8.3f %8.3f | %8.3f %8.3f %8.3f\n",
		name, median(idle), median(spun), median(loaded), s1, median(overSpin), s3, i1, median(overIdle), i3)
	return nil
}
