// Command perfbench is camcast's benchmark: live multicast groups over
// loopback TCP built through the public camcast API, and the paper-scale
// static simulator. Run it through run.py from the repository root:
//
//	python3 perfbench/run.py --workload tcp-chord-1k --seed 1 --seconds 32 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, from a
// run that also records spans around every call into a layer, runs the
// layer probes, and writes the spans to --spans. The process exits 1 when
// a correctness oracle fails and 2 when the run cannot be made.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"

	"camcast"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metricValue

func (m metricSet) put(name string, v float64) { m[name] = metricValue{Value: v} }

// endToEnd and perLayer are the metric names BENCHMARK.json declares, in
// its order; every run reports every name of the set it prints.
var endToEnd = []string{
	"setup_s", "heap_mb", "mcast_p50_ms", "mcast_per_s", "cpu_us_per_hop", "fresh_delivery_ratio",
}

var perLayer = []string{
	"mcast_p99_ms", "join_p50_ms", "join_p95_ms", "leave_p50_ms", "leave_p95_ms", "figures_s", "failed_ops_frac",
	"go.allocs_per_hop", "go.alloc_bytes_per_hop", "go.gc_cycles_per_1k_mcast", "go.gc_pause_p99_us",
	"go.sched_latency_p99_us", "os.read_syscalls_per_hop", "os.write_syscalls_per_hop", "go.goroutines",
	"transport.rpcs_per_hop", "transport.wire_bytes_per_hop", "transport.frames_per_flush",
	"transport.rtt_p50_us", "transport.rtt_p99_us", "transport.payload_encodes_per_node_msg", "transport.errors",
	"transport.call_1k_p50_us", "transport.call_1k_p99_us", "transport.call_64k_p50_us", "transport.call_fan8_1k_p50_us",
	"runtime.spread_p50_us", "runtime.spread_p99_us", "runtime.hop_latency_p50_us",
	"runtime.tree_depth_mean", "runtime.tree_depth_max", "runtime.dups_per_mcast", "runtime.table_faults_per_mcast",
	"runtime.retries_per_1k_mcast", "runtime.repaired_per_1k_mcast", "runtime.lost_per_1k_mcast",
	"runtime.lookups_per_join", "runtime.lookup_hops_p50", "runtime.lookup_hops_p99",
	"runtime.lookup_chord_p50_us", "runtime.lookup_chord_p99_us", "runtime.lookup_koorde_p50_us", "runtime.lookup_koorde_p99_us",
	"runtime.stabilize_p50_us", "runtime.fixall_p50_ms", "camcast.request_1k_p50_us",
	"sim.population_s", "sim.overlay_s", "sim.tree_us", "sim.trees", "sim.measure_s",
	"trace.mcast_p50_ms", "trace.overhead_pct",
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// outcome is what one workload run produced.
type outcome struct {
	e2e, layer metricSet
	attempted  int
	failed     int
	samples    int      // multicast latency samples
	oracle     []string // correctness oracle failures
	notes      []string
}

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "tcp-chord-1k, tcp-koorde-64k, tcp-churn or sim-figures")
	seed := flag.Int64("seed", 1, "workload seed: capacities, sources, churn victims and lookup keys")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spansDir := flag.String("spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's span dump")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	var tr *tracer
	if *traceFlag == 1 {
		tr = newTracer()
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d NumCPU=%d go=%s\n",
		*workloadName, *seed, *seconds, *traceFlag, goruntime.GOMAXPROCS(0), goruntime.NumCPU(), goruntime.Version())

	out, err := runWorkload(*workloadName, *seed, *seconds, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workloadName, err)
		return 2
	}
	if out.e2e == nil { // a diagnostic: its notes are the result
		for _, n := range out.notes {
			fmt.Printf("# %s\n", n)
		}
		return 0
	}
	if tr != nil {
		if err := runProbes(*seed, tr, out.layer); err != nil {
			out.oracle = append(out.oracle, err.Error())
		}
		path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.tsv", *workloadName, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 2
		}
		fmt.Printf("# spans: %s\n", path)
		for _, s := range tr.summary() {
			fmt.Printf("# span %-32s count=%-7d total_ms=%-12.3f self_ms=%.3f\n", s.name, s.count, ms(s.total), ms(s.selfTime))
		}
	}
	if p99, ok := out.layer["mcast_p99_ms"]; ok {
		fmt.Printf("# mcast_p99_ms %.6g ms (highest quantile <= p99 with >= 10 of %d samples beyond)\n", p99.Value, out.samples)
	}
	for _, n := range out.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, o := range out.oracle {
		fmt.Printf("# ORACLE FAILED: %s\n", o)
	}

	names, set := endToEnd, out.e2e
	if tr != nil {
		names, set = perLayer, out.layer
	}
	res := result{Correct: len(out.oracle) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metricSet{}}
	for _, name := range names {
		// A per-layer metric of a layer the workload does not run is 0.
		v, ok := set[name]
		if !ok && tr == nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *workloadName, name)
			return 2
		}
		res.Metrics[name] = metricValue{v.Value, unitOf(name)}
	}
	printTable(res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printTable(m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-40s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func runWorkload(name string, seed int64, seconds int, tr *tracer) (*outcome, error) {
	switch name {
	case "tcp-chord-1k", "tcp-koorde-64k", "tcp-churn":
		w := map[string]liveWorkload{
			"tcp-chord-1k":   {protocol: camcast.CAMChord, size: 1 << 10, senders: 2},
			"tcp-koorde-64k": {protocol: camcast.CAMKoorde, size: 64 << 10, senders: 2},
			"tcp-churn":      {protocol: camcast.CAMChord, size: 1 << 10, senders: 1, churn: true},
		}[name]
		run, err := runLive(w, seed, seconds, tr)
		if err != nil {
			return nil, err
		}
		out := &outcome{attempted: len(run.ops) + len(run.joins) + run.joinErrs + len(run.leaves) + run.leaveErrs}
		out.failed = run.failed + run.joinErrs + run.leaveErrs
		out.e2e, out.layer = liveMetrics(run, tr)
		out.samples = len(run.latencies)
		out.oracle = liveCorrect(run)
		out.notes = append(out.notes,
			fmt.Sprintf("multicasts=%d failed=%d hops=%.0f joins=%d join_errors=%d leaves=%d leave_errors=%d churn_lag_max_ms=%.3f",
				len(run.ops), run.failed, run.hops, len(run.joins), run.joinErrs, len(run.leaves), run.leaveErrs, ms(run.lateMax)),
			fmt.Sprintf("must-receive deliveries: %d of %d missed", run.mustMissed, run.mustGet),
			fmt.Sprintf("fresh deliveries: %.0f of %.0f expected arrived (%.0f missed)", run.arrived, run.expected, run.expected-run.arrived))
		return out, nil
	case "sim-figures":
		run, err := runSim(seed, seconds, tr)
		if err != nil {
			return nil, err
		}
		out := &outcome{attempted: run.figureTrees + len(run.treeTimes) + run.failed, failed: run.failed}
		out.e2e, out.layer = simMetrics(run)
		out.samples = len(run.treeTimes)
		out.layer.put("sim.trees", float64(run.figureTrees+len(run.treeTimes)))
		out.oracle = run.errs
		out.notes = append(out.notes, fmt.Sprintf("figures_digest=%s figure_trees=%d timed_trees=%d", run.digest, run.figureTrees, len(run.treeTimes)))
		return out, nil
	case "diag-bootstrap-join":
		return runBootstrapDiag(seed)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// unitOf derives a metric's unit from its name; the first matching suffix
// wins.
func unitOf(name string) string {
	for _, s := range []struct{ suffix, unit string }{
		{"cpu_us_per_hop", "us"}, {"bytes_per_hop", "B"}, {"_per_hop", "count"}, {"per_s", "1/s"},
		{"_us", "us"}, {"_ms", "ms"}, {"_s", "s"}, {"_pct", "%"}, {"_frac", "ratio"}, {"_ratio", "ratio"},
		{"_mb", "MB"}, {"depth_mean", "hops"}, {"depth_max", "hops"}, {"hops_p50", "hops"}, {"hops_p99", "hops"},
	} {
		if strings.HasSuffix(name, s.suffix) {
			return s.unit
		}
	}
	return "count"
}
