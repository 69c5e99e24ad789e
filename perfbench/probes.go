package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"camcast"
	"camcast/internal/experiments"
	"camcast/internal/multicast"
	"camcast/internal/obsv"
	"camcast/internal/ring"
	"camcast/internal/runtime"
	"camcast/internal/transport"
)

// The layer probes time public functions of one layer directly, from
// outside, in the traced run. They run after the workload's timed phase
// and are the same on every workload.

// echoMsg is the probe's transport payload: an opaque byte slice.
type echoMsg struct{ B []byte }

const echoWireTag byte = 0xF0

func (echoMsg) WireTag() byte                { return echoWireTag }
func (m echoMsg) AppendWire(b []byte) []byte { return transport.AppendBytes(b, m.B) }

var registerEcho sync.Once

func decodeEcho(b []byte) (any, error) {
	r := transport.NewWireReader(b)
	m := echoMsg{B: r.Bytes()}
	return m, r.Err()
}

// timeN runs fn n times and returns each call's duration.
func timeN(n int, tr *tracer, name string, fn func(i int) error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := tr.call(name, 0, uint64(i), func() error { return fn(i) }); err != nil {
			return nil, fmt.Errorf("%s call %d: %w", name, i, err)
		}
		out = append(out, time.Since(t))
	}
	return out, nil
}

// probeTransport times transport.TCP.Call echoes between two transports:
// serial 1 KiB and 64 KiB calls, and 1 KiB calls with 8 in flight.
func probeTransport(tr *tracer, layer metricSet) error {
	registerEcho.Do(func() { transport.RegisterWireDecoder(echoWireTag, decodeEcho) })
	a, err := transport.NewTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer a.Close()
	srv, err := transport.NewTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.Register(srv.Addr(), func(from, kind string, payload any) (any, error) { return payload, nil })
	ctx := context.Background()
	call := func(size int) func(int) error {
		msg := echoMsg{B: make([]byte, size)}
		return func(int) error {
			resp, err := a.Call(ctx, "probe", srv.Addr(), "echo", msg)
			if err != nil {
				return err
			}
			if got, ok := resp.(echoMsg); !ok || len(got.B) != size {
				return fmt.Errorf("echo returned %T of the wrong size", resp)
			}
			return nil
		}
	}
	if err := call(1024)(0); err != nil { // dial outside the timing
		return err
	}
	d1k, err := timeN(3000, tr, "transport.TCP.Call", call(1024))
	if err != nil {
		return err
	}
	d64k, err := timeN(500, tr, "transport.TCP.Call", call(64<<10))
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var fan []time.Duration
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := timeN(400, tr, "transport.TCP.Call", call(1024))
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			fan = append(fan, d...)
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	l1k := durations(d1k, time.Microsecond)
	layer.put("transport.call_1k_p50_us", quantile(l1k, 0.5))
	layer.put("transport.call_1k_p99_us", quantile(l1k, 0.99))
	layer.put("transport.call_64k_p50_us", median(durations(d64k, time.Microsecond)))
	layer.put("transport.call_fan8_1k_p50_us", median(durations(fan, time.Microsecond)))
	return nil
}

// probeRuntime times Node.FindSuccessor, StabilizeOnce and FixAll on a
// 128-member ring over transport.TCP, one transport per node as ListenTCP
// builds them, with tables installed by BulkInstall. Every lookup answer is
// checked against the sorted membership.
func probeRuntime(seed int64, tr *tracer, layer metricSet) error {
	runtime.RegisterWireTypes()
	space := ring.MustSpace(32)
	for _, mode := range []struct {
		name string
		mode runtime.Mode
	}{{"chord", runtime.ModeCAMChord}, {"koorde", runtime.ModeCAMKoorde}} {
		rng := rand.New(rand.NewSource(seed*43 + int64(mode.mode)))
		caps := drawCaps(rng, liveMembers)
		nodes := make([]*runtime.Node, 0, liveMembers)
		var trs []*transport.TCP
		cleanup := func() {
			for _, n := range nodes {
				n.Stop()
			}
			for _, t := range trs {
				t.Close()
			}
		}
		for i := 0; i < liveMembers; i++ {
			t, err := transport.NewTCP("127.0.0.1:0")
			if err != nil {
				cleanup()
				return err
			}
			trs = append(trs, t)
			reg := obsv.NewRegistry()
			t.Instrument(reg)
			n, err := runtime.NewNode(t.Flow(transport.DefaultGroup), t.Addr(), runtime.Config{Space: space, Mode: mode.mode, Capacity: caps[i], Metrics: reg})
			if err != nil {
				cleanup()
				return err
			}
			nodes = append(nodes, n)
		}
		if err := runtime.BulkInstall(nodes, runtime.BulkOptions{}); err != nil {
			cleanup()
			return err
		}
		ids := make([]ring.ID, len(nodes))
		for i, n := range nodes {
			ids[i] = n.Self().ID
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		lookups, err := timeN(1000, tr, "runtime.Node.FindSuccessor", func(int) error {
			k := space.Reduce(rng.Uint64())
			got, _, err := nodes[rng.Intn(len(nodes))].FindSuccessor(k)
			if err != nil {
				return err
			}
			if want := successorOf(ids, k); got.ID != want {
				return fmt.Errorf("lookup(%d) = %d, want successor %d", k, got.ID, want)
			}
			return nil
		})
		if err != nil {
			cleanup()
			return err
		}
		// StabilizeOnce and FixAll report no errors, so these cannot fail.
		stab, _ := timeN(300, tr, "runtime.Node.StabilizeOnce", func(int) error {
			nodes[rng.Intn(len(nodes))].StabilizeOnce()
			return nil
		})
		fix, _ := timeN(20, tr, "runtime.Node.FixAll", func(int) error {
			nodes[rng.Intn(len(nodes))].FixAll()
			return nil
		})
		cleanup()
		l := durations(lookups, time.Microsecond)
		layer.put("runtime.lookup_"+mode.name+"_p50_us", quantile(l, 0.5))
		layer.put("runtime.lookup_"+mode.name+"_p99_us", quantile(l, 0.99))
		if mode.mode == runtime.ModeCAMChord {
			layer.put("runtime.stabilize_p50_us", median(durations(stab, time.Microsecond)))
			layer.put("runtime.fixall_p50_ms", median(durations(fix, time.Millisecond)))
		}
	}
	return nil
}

// successorOf returns the first identifier >= k on the sorted ring.
func successorOf(ids []ring.ID, k ring.ID) ring.ID {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= k })
	if i == len(ids) {
		return ids[0]
	}
	return ids[i]
}

// probeRequest times camcast RequestContext echoes between two members:
// one hop, no forward engine.
func probeRequest(tr *tracer, layer metricSet) error {
	echo := func(from string, p []byte) ([]byte, error) { return p, nil }
	opts := camcast.Options{Capacity: 4, Stabilize: -1, Fix: -1, OnRequest: echo}
	a, err := camcast.ListenTCP("127.0.0.1:0", "", opts)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := camcast.ListenTCP("127.0.0.1:0", a.Addr(), opts)
	if err != nil {
		return err
	}
	defer b.Close()
	ctx := context.Background()
	payload := make([]byte, 1024)
	req := func(int) error {
		resp, err := b.RequestContext(ctx, a.Addr(), payload)
		if err == nil && len(resp) != len(payload) {
			err = fmt.Errorf("echo returned %d bytes, want %d", len(resp), len(payload))
		}
		return err
	}
	if err := req(0); err != nil {
		return err
	}
	d, err := timeN(2000, tr, "camcast.RequestContext", req)
	if err != nil {
		return err
	}
	layer.put("camcast.request_1k_p50_us", median(durations(d, time.Microsecond)))
	return nil
}

// probeSim times the static simulator's stages at paper scale: population
// build, both capacity-aware overlays, single trees, and MeasureTrees.
func probeSim(seed int64, tr *tracer, layer metricSet) error {
	var pop *experiments.Population
	t := time.Now()
	err := tr.call("experiments.NewPopulation", 0, 0, func() (err error) {
		pop, err = experiments.NewPopulation(simConfig(seed))
		return err
	})
	if err != nil {
		return err
	}
	layer.put("sim.population_s", time.Since(t).Seconds())
	var chord, koorde experiments.TreeBuilder
	t = time.Now()
	err = tr.call("experiments.NewOverlay", 0, 0, func() (err error) {
		if chord, err = experiments.NewOverlay(experiments.SystemCAMChord, pop, pop.Caps, 0); err != nil {
			return err
		}
		koorde, err = experiments.NewOverlay(experiments.SystemCAMKoorde, pop, pop.Caps, 0)
		return err
	})
	if err != nil {
		return err
	}
	layer.put("sim.overlay_s", time.Since(t).Seconds())
	rng := rand.New(rand.NewSource(seed * 47))
	tree, err := multicast.NewTree(simN, 0)
	if err != nil {
		return err
	}
	trees, err := timeN(40, tr, "multicast.BuildTreeInto", func(i int) error {
		ov := chord
		if i%2 == 1 {
			ov = koorde
		}
		return ov.(experiments.TreeIntoBuilder).BuildTreeInto(tree, rng.Intn(simN))
	})
	if err != nil {
		return err
	}
	layer.put("sim.tree_us", median(durations(trees, time.Microsecond)))
	sources := experiments.PickSources(simN, 10, seed)
	t = time.Now()
	err = tr.call("experiments.MeasureTrees", 0, 0, func() error {
		_, err := experiments.MeasureTrees(chord, pop.Bandwidth, pop.Caps, sources)
		return err
	})
	if err != nil {
		return err
	}
	layer.put("sim.measure_s", time.Since(t).Seconds())
	return nil
}

// runProbes runs every layer probe and adds its metrics to layer.
func runProbes(seed int64, tr *tracer, layer metricSet) error {
	if err := probeTransport(tr, layer); err != nil {
		return fmt.Errorf("transport probe: %w", err)
	}
	if err := probeRuntime(seed, tr, layer); err != nil {
		return fmt.Errorf("runtime probe: %w", err)
	}
	if err := probeRequest(tr, layer); err != nil {
		return fmt.Errorf("request probe: %w", err)
	}
	if err := probeSim(seed, tr, layer); err != nil {
		return fmt.Errorf("simulator probe: %w", err)
	}
	return nil
}
