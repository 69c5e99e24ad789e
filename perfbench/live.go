package main

import (
	"context"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"camcast"
	"camcast/internal/obsv"
)

const (
	liveMembers  = 128
	setupRepeats = 3    // setups per run; setup_s is their median
	verifyOps    = 16   // ledger slots reserved for setup's delivery checks
	maxOpsPerSec = 5000 // ledger sizing: far above any measured rate
	tracedEvery  = 4    // in traced runs, one multicast in this many is traced
	churnRate    = 20   // membership events per second in tcp-churn
	churnMaint   = 100 * time.Millisecond
)

// opTiming is the source-side record of one multicast.
type opTiming struct {
	seq        uint64
	start, end int64 // ns since the group epoch
	err        error
	traced     bool
}

func (o opTiming) latency() time.Duration { return time.Duration(o.end - o.start) }

// sendLoop is one closed-loop sender: until the deadline it claims a random
// live member and multicasts a payload of the given size from it,
// recording each operation. A claimed member is not chosen to leave.
func sendLoop(g *group, rng *rand.Rand, size int, deadline time.Time, next *atomic.Uint64, limit uint64) []opTiming {
	payload := make([]byte, size)
	var out []opTiming
	for time.Now().Before(deadline) {
		src := claim(g, rng)
		if src == nil {
			time.Sleep(time.Millisecond)
			continue
		}
		seq := next.Add(1) - 1
		if seq >= limit {
			src.busy.Store(false)
			break
		}
		traced := g.tr != nil && seq%tracedEvery == 0
		var sid uint64
		var sstart int64
		if traced {
			sid, sstart = g.tr.begin()
		}
		putHeader(payload, seq, traced, sid)
		op := opTiming{seq: seq, traced: traced, start: g.since()}
		_, op.err = src.m.MulticastContext(context.Background(), payload)
		op.end = g.since()
		if traced {
			g.tr.end(sid, 0, seq, "camcast.MulticastContext", sstart, int64(src.idx))
		}
		src.busy.Store(false)
		out = append(out, op)
	}
	return out
}

// claim marks a random live member busy and returns it (nil if every live
// member is busy or leaving).
func claim(g *group, rng *rand.Rand) *member {
	live := g.liveMembers()
	for tries := 0; tries < 8 && len(live) > 0; tries++ {
		m := live[rng.Intn(len(live))]
		if m.leaving.Load() == 0 && m.busy.CompareAndSwap(false, true) {
			return m
		}
	}
	return nil
}

// liveRun is everything one live workload measured.
type liveRun struct {
	steady     bool // tcp-chord-1k / tcp-koorde-64k: no membership changes while timed
	setups     []time.Duration
	heaps      []float64
	goroutines int
	setup      setupResult // the last group's setup

	phase     time.Duration // timed phases, summed over groups
	ops       []opTiming
	proc      procDelta
	reg       registry
	joins     []time.Duration
	leaves    []time.Duration
	joinErrs  int
	leaveErrs int
	lateMax   time.Duration

	// judged from the ledgers
	failed     int
	dups       int64
	stray      int64
	hops       float64 // delivered message-hops (deliveries minus the source's own)
	deliveries float64
	depthSum   float64
	depthMax   int
	mustGet    int     // deliveries members that must receive were owed
	mustMissed int     // ... and missed
	expected   float64 // fresh-member deliveries expected
	arrived    float64 // ... and received
	capErrors  []string
	latencies  []time.Duration // every completed multicast
	okOps      int
	traced     []time.Duration
	untraced   []time.Duration
}

// liveWorkload fixes what differs between the three live workloads.
type liveWorkload struct {
	protocol camcast.Protocol
	size     int  // payload bytes
	senders  int  // closed-loop multicast senders
	churn    bool // open-loop join/leave events and 100ms maintenance
}

// runLive builds setupRepeats groups one after another from the same
// capacities and times the load on each for an equal share of the run, so
// every run pools several random rings (identifiers come from the members'
// loopback addresses). setup_s and heap_mb are medians over the groups.
func runLive(w liveWorkload, seed int64, seconds int, tr *tracer) (*liveRun, error) {
	rng := rand.New(rand.NewSource(seed))
	share := time.Duration(seconds) * time.Second / setupRepeats
	spec := groupSpec{protocol: w.protocol, initial: liveMembers, maxMembers: liveMembers}
	if w.churn {
		spec.maintenance = churnMaint
		spec.maxMembers += int(share.Seconds()*churnRate)/2 + 8
	}
	caps := drawCaps(rng, spec.maxMembers)
	maxOps := maxOpsPerSec*int(share.Seconds()+1) + verifyOps
	run := &liveRun{steady: !w.churn}
	for rep := 0; rep < setupRepeats; rep++ {
		g := newGroup(spec, caps, maxOps, tr)
		res, err := g.build(rand.New(rand.NewSource(seed*53 + int64(rep))))
		if err != nil {
			g.closeAll()
			return nil, fmt.Errorf("setup %d: %w", rep+1, err)
		}
		run.setups = append(run.setups, res.dur)
		run.setup = res
		run.heaps = append(run.heaps, heapInUseMB())
		run.goroutines = goruntime.NumGoroutine()
		if !w.churn {
			run.joins = append(run.joins, res.joins...)
		}
		loadPhase(g, w, seed*59+int64(rep), share, run)
		g.closeAll()
	}
	return run, nil
}

// loadPhase times one group under the workload's load for d and judges
// every multicast from the ledger.
func loadPhase(g *group, w liveWorkload, seed int64, d time.Duration, run *liveRun) {
	initial := g.liveMembers()
	fwdBefore := forwarded(initial)
	before := sumMembers(g.tcpMembers())
	churnStart := g.since()
	p0 := readProc()
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Uint64
	limit := uint64(len(g.led.ops) - verifyOps)
	ops := make([][]opTiming, w.senders)
	var wg sync.WaitGroup
	for s := range ops {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ops[s] = sendLoop(g, rand.New(rand.NewSource(seed*31+int64(s))), w.size, deadline, &next, limit)
		}(s)
	}
	if w.churn {
		churnEvents(g, rand.New(rand.NewSource(seed*37+1)), start, deadline, run)
	}
	wg.Wait()
	run.phase += time.Since(start)
	run.proc.add(readProc().sub(p0))
	run.reg.add(sumMembers(g.tcpMembers()).sub(before))
	var phaseOps []opTiming
	for _, o := range ops {
		phaseOps = append(phaseOps, o...)
	}
	g.led.quiesce(len(phaseOps))

	// Must receive: members live from before the phase began until after
	// the multicast returned (on the steady workloads, every member).
	isInitial := make(map[*member]bool, len(initial))
	for _, m := range initial {
		isInitial[m] = true
	}
	judge(g, phaseOps, run, func(op opTiming, m *member) bool {
		l := m.leaving.Load()
		return isInitial[m] && m.joined.Load() <= churnStart && (l == 0 || l > op.end)
	})
	checkCapacity(initial, fwdBefore, len(phaseOps), run)
	if !w.churn {
		// Graceful teardown, timed: the leave latencies of a converged ring.
		for _, m := range initial {
			if dl, err := g.leave(m, 0); err != nil {
				run.leaveErrs++
			} else {
				run.leaves = append(run.leaves, dl)
			}
		}
	}
}

// churnEvents is the open loop of tcp-churn: every 1/churnRate seconds it
// alternately joins a new member through a random live one and gracefully
// removes a random live member. Latencies count from when each event was
// due, so a stalled event also charges the ones queued behind it.
func churnEvents(g *group, rng *rand.Rand, start, deadline time.Time, run *liveRun) {
	g.mu.Lock()
	nextIdx := len(g.members)
	g.mu.Unlock()
	period := time.Second / churnRate
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if !due.Before(deadline) {
			return
		}
		time.Sleep(time.Until(due))
		if late := time.Since(due); late > run.lateMax {
			run.lateMax = late
		}
		if k%2 == 0 {
			live := g.liveMembers()
			via := live[rng.Intn(len(live))].m.Addr()
			if _, _, err := g.join(nextIdx, via, 0); err != nil {
				run.joinErrs++
			} else {
				run.joins = append(run.joins, time.Since(due))
			}
			nextIdx++
			continue
		}
		victim := claim(g, rng)
		if victim == nil {
			run.leaveErrs++
			continue
		}
		if _, err := g.leave(victim, 0); err != nil {
			run.leaveErrs++
		} else {
			run.leaves = append(run.leaves, time.Since(due))
		}
	}
}

func forwarded(ms []*member) map[*member]uint64 {
	out := make(map[*member]uint64, len(ms))
	for _, m := range ms {
		out[m] = m.m.Stats().Forwarded
	}
	return out
}

// checkCapacity enforces children(x) <= c_x: over the phase, no member may
// have sent more multicast copies than c_x per multicast.
func checkCapacity(ms []*member, before map[*member]uint64, ops int, run *liveRun) {
	for _, m := range ms {
		d := m.m.Stats().Forwarded - before[m]
		if d > uint64(m.capacity*ops) {
			run.capErrors = append(run.capErrors, fmt.Sprintf("member %d (c_x=%d) forwarded %d copies for %d multicasts", m.idx, m.capacity, d, ops))
		}
	}
}

// judge walks the ledger: an operation fails if it returned an error, if a
// member mustReceive says must get it missed it, or if any member got it
// twice. It also totals hops, depths and fresh-member delivery.
func judge(g *group, ops []opTiming, run *liveRun, mustReceive func(opTiming, *member) bool) {
	all := func() []*member {
		g.mu.Lock()
		defer g.mu.Unlock()
		return append([]*member(nil), g.members...)
	}()
	const second = int64(time.Second)
	run.ops = append(run.ops, ops...)
	for _, op := range ops {
		rec := &g.led.ops[op.seq]
		dups := rec.dups.Load()
		unique := float64(rec.deliveries.Load() - dups)
		run.dups += int64(dups)
		run.deliveries += unique
		if unique > 0 {
			run.hops += unique - 1
		}
		run.depthSum += float64(rec.hopSum.Load())
		if d := int(rec.hopMax.Load()); d > run.depthMax {
			run.depthMax = d
		}
		ok := op.err == nil && dups == 0
		for _, m := range all {
			got := g.led.has(op.seq, m.idx)
			if mustReceive(op, m) {
				run.mustGet++
				if !got {
					run.mustMissed++
					ok = false
				}
			}
			l := m.leaving.Load()
			if m.joined.Load() <= op.start-second && (l == 0 || l > op.end) {
				run.expected++
				if got {
					run.arrived++
				}
			}
		}
		if !ok {
			run.failed++
		}
		if op.err == nil {
			run.okOps++
		}
		run.latencies = append(run.latencies, op.latency())
		if op.traced {
			run.traced = append(run.traced, op.latency())
		} else {
			run.untraced = append(run.untraced, op.latency())
		}
	}
	run.stray += g.led.stray.Load()
}

// liveMetrics turns a live run into the end-to-end and per-layer metrics.
func liveMetrics(run *liveRun, tr *tracer) (e2e, layer metricSet) {
	e2e, layer = metricSet{}, metricSet{}
	setups := durations(run.setups, time.Second)
	lat := durations(run.latencies, time.Millisecond)
	e2e.put("setup_s", median(setups))
	e2e.put("heap_mb", median(run.heaps))
	e2e.put("mcast_p50_ms", quantile(lat, 0.5))
	e2e.put("mcast_per_s", float64(run.okOps)/run.phase.Seconds())
	e2e.put("cpu_us_per_hop", ratio(us(run.proc.cpu), run.hops))
	e2e.put("fresh_delivery_ratio", ratio(run.arrived, run.expected))

	layer.put("mcast_p99_ms", tailQuantile(lat, 0.99, 10))
	nOps := float64(len(run.ops))
	joins := durations(run.joins, time.Millisecond)
	leaves := durations(run.leaves, time.Millisecond)
	layer.put("join_p50_ms", quantile(joins, 0.5))
	layer.put("join_p95_ms", quantile(joins, 0.95))
	layer.put("leave_p50_ms", quantile(leaves, 0.5))
	layer.put("leave_p95_ms", quantile(leaves, 0.95))
	layer.put("failed_ops_frac", ratio(float64(run.failed), nOps))

	p := run.proc
	layer.put("go.allocs_per_hop", ratio(p.allocs, run.hops))
	layer.put("go.alloc_bytes_per_hop", ratio(p.allocBytes, run.hops))
	layer.put("go.gc_cycles_per_1k_mcast", ratio(1000*p.gcCycles, nOps))
	layer.put("go.gc_pause_p99_us", us(p.gcPauseP99))
	layer.put("go.sched_latency_p99_us", us(p.schedP99))
	layer.put("os.read_syscalls_per_hop", ratio(p.syscr, run.hops))
	layer.put("os.write_syscalls_per_hop", ratio(p.syscw, run.hops))
	layer.put("go.goroutines", float64(run.goroutines))

	r := run.reg
	flush := r.hists[obsv.MetricFlushBatch]
	rtt := r.hists[obsv.MetricRPCLatency]
	layer.put("transport.rpcs_per_hop", ratio(r.counters[obsv.MetricRPCCalls], run.hops))
	layer.put("transport.wire_bytes_per_hop", ratio(r.counters[obsv.MetricBytesSent], run.hops))
	layer.put("transport.frames_per_flush", ratio(flush.Sum, float64(flush.Count)))
	layer.put("transport.rtt_p50_us", 1e6*histQuantile(rtt, 0.5))
	layer.put("transport.rtt_p99_us", 1e6*histQuantile(rtt, 0.99))
	layer.put("transport.payload_encodes_per_node_msg", ratio(r.counters[obsv.MetricPayloadEncodes], run.deliveries))
	layer.put("transport.errors", r.counters[obsv.MetricRPCErrors])

	spread, hopLat := deliveryGaps(tr)
	layer.put("runtime.spread_p50_us", quantile(spread, 0.5))
	layer.put("runtime.spread_p99_us", quantile(spread, 0.99))
	layer.put("runtime.hop_latency_p50_us", quantile(hopLat, 0.5))
	layer.put("runtime.tree_depth_mean", ratio(run.depthSum, run.deliveries))
	layer.put("runtime.tree_depth_max", float64(run.depthMax))
	st := r.stats
	layer.put("runtime.dups_per_mcast", ratio(float64(st.Duplicates), nOps))
	layer.put("runtime.table_faults_per_mcast", ratio(float64(st.TableFaults), nOps))
	layer.put("runtime.retries_per_1k_mcast", ratio(1000*float64(st.Retries), nOps))
	layer.put("runtime.repaired_per_1k_mcast", ratio(1000*float64(st.SegmentsRepaired), nOps))
	layer.put("runtime.lost_per_1k_mcast", ratio(1000*float64(st.SegmentsLost), nOps))

	// Lookups: the churn phases for tcp-churn. The steady workloads do no
	// lookups while timed, so they report the last group's setup: requests
	// served during its joins, and hop counts over the whole setup.
	lookups, nJoins, hopsHist := float64(st.Lookups), float64(len(run.joins)), r.hists[obsv.MetricLookupHops]
	if run.steady {
		lookups, nJoins = float64(run.setup.joinReg.stats.Lookups), float64(len(run.setup.joins))
		hopsHist = run.setup.endReg.hists[obsv.MetricLookupHops]
	}
	layer.put("runtime.lookups_per_join", ratio(lookups, nJoins))
	layer.put("runtime.lookup_hops_p50", histQuantile(hopsHist, 0.5))
	layer.put("runtime.lookup_hops_p99", histQuantile(hopsHist, 0.99))

	tracedLat := durations(run.traced, time.Millisecond)
	untracedLat := durations(run.untraced, time.Millisecond)
	layer.put("trace.mcast_p50_ms", quantile(tracedLat, 0.5))
	layer.put("trace.overhead_pct", 100*ratio(quantile(tracedLat, 0.5)-quantile(untracedLat, 0.5), quantile(untracedLat, 0.5)))
	return e2e, layer
}

// deliveryGaps derives, from the delivery spans of traced multicasts
// (children of their multicast's span), each multicast's spread (last
// delivery minus the first, the source's own) in µs and the gaps between
// the first deliveries at successive hop depths.
func deliveryGaps(tr *tracer) (spread, hopLat []float64) {
	if tr == nil {
		return nil, nil
	}
	type agg struct {
		first, last int64
		byDepth     map[int64]int64 // depth -> earliest delivery
	}
	ops := map[uint64]*agg{}
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.name != "camcast.OnDeliver" {
			continue
		}
		a := ops[s.parent]
		if a == nil {
			a = &agg{first: s.start, last: s.start, byDepth: map[int64]int64{}}
			ops[s.parent] = a
		}
		a.first, a.last = min(a.first, s.start), max(a.last, s.start)
		if t, ok := a.byDepth[s.attr]; !ok || s.start < t {
			a.byDepth[s.attr] = s.start
		}
	}
	tr.mu.Unlock()
	for _, a := range ops {
		spread = append(spread, float64(a.last-a.first)/1e3)
		depths := make([]int64, 0, len(a.byDepth))
		for d := range a.byDepth {
			depths = append(depths, d)
		}
		sort.Slice(depths, func(i, j int) bool { return depths[i] < depths[j] })
		for i := 1; i < len(depths); i++ {
			if depths[i] == depths[i-1]+1 {
				hopLat = append(hopLat, float64(a.byDepth[depths[i]]-a.byDepth[depths[i-1]])/1e3)
			}
		}
	}
	return spread, hopLat
}

// liveCorrect lists the oracle failures of a live run. A missed delivery
// fails the run on the steady workloads; under churn it is a failed
// multicast, counted but not an oracle failure.
func liveCorrect(run *liveRun) []string {
	var bad []string
	if run.dups > 0 {
		bad = append(bad, fmt.Sprintf("%d duplicate deliveries", run.dups))
	}
	if run.stray > 0 {
		bad = append(bad, fmt.Sprintf("%d deliveries matched no multicast", run.stray))
	}
	if run.steady && run.failed > 0 {
		bad = append(bad, fmt.Sprintf("%d of %d multicasts failed", run.failed, len(run.ops)))
	}
	if len(run.ops) == 0 {
		bad = append(bad, "no multicast completed")
	}
	return append(bad, run.capErrors...)
}
