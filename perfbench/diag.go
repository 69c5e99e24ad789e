package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"camcast"
)

// runBootstrapDiag measures a known behaviour rather than a workload: all
// members join through one bootstrap member with no per-join
// stabilization, background maintenance runs every 100ms for 6s, and then
// multicasts from random members count how many deliveries are missed.
// It is not in BENCHMARK.json; its misses are the measurement, not an
// oracle failure.
func runBootstrapDiag(seed int64) (*outcome, error) {
	rng := rand.New(rand.NewSource(seed))
	spec := groupSpec{protocol: camcast.CAMChord, initial: liveMembers, maxMembers: liveMembers, maintenance: churnMaint}
	const probes = 20
	g := newGroup(spec, drawCaps(rng, liveMembers), probes, nil)
	defer g.closeAll()
	first, _, err := g.join(0, "", 0)
	if err != nil {
		return nil, err
	}
	for i := 1; i < liveMembers; i++ {
		if _, _, err := g.join(i, first.m.Addr(), 0); err != nil {
			return nil, err
		}
	}
	time.Sleep(6 * time.Second)
	live := g.liveMembers()
	payload := make([]byte, 1024)
	var missed, expected float64
	failed := 0
	for seq := 0; seq < probes; seq++ {
		putHeader(payload, uint64(seq), false, 0)
		_, err := live[rng.Intn(len(live))].m.MulticastContext(context.Background(), payload)
		if err != nil {
			failed++
		}
	}
	g.led.quiesce(probes)
	for seq := 0; seq < probes; seq++ {
		for _, m := range live {
			expected++
			if !g.led.has(uint64(seq), m.idx) {
				missed++
			}
		}
	}
	out := &outcome{attempted: probes, failed: failed}
	out.notes = append(out.notes, fmt.Sprintf("bootstrap-only join, 6s of 100ms maintenance: %.0f of %.0f deliveries missed (%.1f%%), ring correct: %v",
		missed, expected, 100*missed/expected, g.ringCorrect() == nil))
	return out, nil
}
