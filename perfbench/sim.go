package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"time"

	"camcast/internal/experiments"
	"camcast/internal/multicast"
	"camcast/internal/workload"
)

const (
	simN        = workload.DefaultGroupSize // 100,000 members
	simBits     = workload.DefaultBits      // 2^19 ring
	simMinTrees = 10                        // multicasts each tree worker times, at least
	simWorkers  = 2                         // tree-loop goroutines
	// The population builds in about 0.1s, so it is repeated more often
	// than the live groups to keep its median steady.
	simSetupRepeats = 7
)

// simRun is everything the sim-figures workload measured.
type simRun struct {
	setups     []time.Duration
	heapMB     float64
	goroutines int

	figures     time.Duration
	figureTrees int
	figureProc  procDelta
	digest      string

	treeTimes []time.Duration // per static multicast: one source's trees on both overlays
	traced    []time.Duration
	untraced  []time.Duration

	failed int
	errs   []string
}

func simConfig(seed int64) workload.Config {
	return workload.DefaultConfig(simN, seed)
}

// runSim is sim-figures: Figures 6, 9 and 11 at paper scale with one source
// per point, then static multicast trees on the default population until
// the run's time is up.
func runSim(seed int64, seconds int, tr *tracer) (*simRun, error) {
	run := &simRun{}
	var pop *experiments.Population
	for i := 0; i < simSetupRepeats; i++ {
		pop = nil
		experiments.ResetCaches()
		goruntime.GC()
		t0 := time.Now()
		err := tr.call("experiments.CachedPopulation", 0, 0, func() (err error) {
			pop, err = experiments.CachedPopulation(simConfig(seed))
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("population: %w", err)
		}
		run.setups = append(run.setups, time.Since(t0))
	}
	run.heapMB = heapInUseMB()
	run.goroutines = goruntime.NumGoroutine()

	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	cfg := experiments.Config{N: simN, Sources: 1, Seed: seed, Bits: simBits}
	p0 := readProc()
	h := sha256.New()
	for _, f := range []struct {
		name string
		fn   func(experiments.Config) (experiments.FigureResult, error)
	}{{"experiments.Figure6", experiments.Figure6}, {"experiments.Figure9", experiments.Figure9}, {"experiments.Figure11", experiments.Figure11}} {
		var res experiments.FigureResult
		err := tr.call(f.name, 0, 0, func() (err error) {
			res, err = f.fn(cfg)
			return err
		})
		if err != nil {
			run.failed++
			run.errs = append(run.errs, fmt.Sprintf("%s: %v", f.name, err))
			continue
		}
		run.figureTrees += figureTrees(res)
		h.Write([]byte(res.TSV()))
	}
	run.figures = time.Since(start)
	run.figureProc = readProc().sub(p0)
	run.digest = hex.EncodeToString(h.Sum(nil))

	// Static multicast trees from seeded random sources over both
	// capacity-aware overlays of the default population; each tree is
	// checked for exactly-once delivery and children(x) <= c_x.
	overlays := make([]experiments.TreeBuilder, 0, 2)
	for _, sys := range []experiments.System{experiments.SystemCAMChord, experiments.SystemCAMKoorde} {
		var ov experiments.TreeBuilder
		err := tr.call("experiments.NewOverlay", 0, 0, func() (err error) {
			ov, err = experiments.NewOverlay(sys, pop, pop.Caps, 0)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("overlay %s: %w", sys, err)
		}
		overlays = append(overlays, ov)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			times, traced, untraced, errs := treeLoop(overlays, pop.Caps, seed*41+int64(w), deadline, tr)
			mu.Lock()
			defer mu.Unlock()
			run.treeTimes = append(run.treeTimes, times...)
			run.traced = append(run.traced, traced...)
			run.untraced = append(run.untraced, untraced...)
			run.failed += len(errs)
			run.errs = append(run.errs, errs...)
		}(w)
	}
	wg.Wait()
	experiments.ResetCaches()
	return run, nil
}

// treeLoop times static multicasts from seeded random sources until the
// deadline: one multicast is one source's tree rebuilt in place on every
// overlay (CAM-Chord, then CAM-Koorde). Only the builds are timed; each
// tree is then checked against the simulator-tree invariants.
func treeLoop(overlays []experiments.TreeBuilder, caps []int, seed int64, deadline time.Time, tr *tracer) (
	times, traced, untraced []time.Duration, errs []string) {
	rng := rand.New(rand.NewSource(seed))
	tree, err := multicast.NewTree(simN, 0)
	if err != nil {
		return nil, nil, nil, []string{err.Error()}
	}
	for i := 0; time.Now().Before(deadline) || i < simMinTrees; i++ {
		src := rng.Intn(simN)
		isTraced := tr != nil && i%tracedEvery == 0
		sid, sstart := tr.begin()
		var d time.Duration
		var bad error
		for _, ov := range overlays {
			t := time.Now()
			err := ov.(experiments.TreeIntoBuilder).BuildTreeInto(tree, src)
			d += time.Since(t)
			if err == nil {
				err = checkTree(tree, caps)
			}
			if err != nil {
				bad = err
				break
			}
		}
		if isTraced {
			tr.end(sid, 0, uint64(src), "multicast.BuildTreeInto", sstart, int64(src))
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
		}
		if bad != nil {
			errs = append(errs, fmt.Sprintf("tree from %d: %v", src, bad))
			continue
		}
		times = append(times, d)
	}
	return times, traced, untraced, errs
}

// figureTrees counts the multicast trees a figure measured (one source per
// point): one per plotted point, except Figure 9, whose series are depth
// histograms of one tree each, and Figure 11's reference-bound curve.
func figureTrees(res experiments.FigureResult) int {
	switch res.Name {
	case "figure9":
		return len(res.Series)
	case "figure11":
		return len(res.Series[0].Points) + len(res.Series[1].Points)
	}
	n := 0
	for _, s := range res.Series {
		n += len(s.Points)
	}
	return n
}

// checkTree enforces the simulator-tree invariants: every member reached
// exactly once (Tree.Deliver already refuses a second delivery) and no
// member with more children than its capacity.
func checkTree(t *multicast.Tree, caps []int) error {
	if err := t.VerifyComplete(); err != nil {
		return err
	}
	for x := 0; x < t.Len(); x++ {
		if t.Degree(x) > caps[x] {
			return fmt.Errorf("member %d has %d children, c_x = %d", x, t.Degree(x), caps[x])
		}
	}
	return nil
}

func simMetrics(run *simRun) (e2e, layer metricSet) {
	e2e, layer = metricSet{}, metricSet{}
	e2e.put("setup_s", median(durations(run.setups, time.Second)))
	e2e.put("heap_mb", run.heapMB)
	lat := durations(run.treeTimes, time.Millisecond)
	e2e.put("mcast_p50_ms", quantile(lat, 0.5))
	e2e.put("mcast_per_s", float64(run.figureTrees)/run.figures.Seconds())
	edges := float64(run.figureTrees) * float64(simN-1)
	e2e.put("cpu_us_per_hop", ratio(us(run.figureProc.cpu), edges))
	e2e.put("fresh_delivery_ratio", 1-ratio(float64(run.failed), float64(len(run.treeTimes)+run.failed)))

	layer.put("mcast_p99_ms", tailQuantile(lat, 0.99, 10))
	layer.put("figures_s", run.figures.Seconds())
	layer.put("failed_ops_frac", ratio(float64(run.failed), float64(len(run.treeTimes)+run.figureTrees+run.failed)))
	p := run.figureProc
	layer.put("go.allocs_per_hop", ratio(p.allocs, edges))
	layer.put("go.alloc_bytes_per_hop", ratio(p.allocBytes, edges))
	layer.put("go.gc_cycles_per_1k_mcast", ratio(1000*p.gcCycles, float64(run.figureTrees)))
	layer.put("go.gc_pause_p99_us", us(p.gcPauseP99))
	layer.put("go.sched_latency_p99_us", us(p.schedP99))
	layer.put("os.read_syscalls_per_hop", ratio(p.syscr, edges))
	layer.put("os.write_syscalls_per_hop", ratio(p.syscw, edges))
	layer.put("go.goroutines", float64(run.goroutines))
	tracedLat := durations(run.traced, time.Millisecond)
	untracedLat := durations(run.untraced, time.Millisecond)
	layer.put("trace.mcast_p50_ms", quantile(tracedLat, 0.5))
	layer.put("trace.overhead_pct", 100*ratio(quantile(tracedLat, 0.5)-quantile(untracedLat, 0.5), quantile(untracedLat, 0.5)))
	return e2e, layer
}
