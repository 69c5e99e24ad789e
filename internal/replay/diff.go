package replay

import (
	"fmt"
	"sort"
	"strings"
)

// CountersSnapshot aggregates the protocol counters of every node a replay
// ever created (including members that later left or crashed). It is the
// coarse fingerprint of a run: two replays of one log must agree on every
// field, and the fields are exactly runtime.Stats summed group-wide.
type CountersSnapshot struct {
	Delivered   uint64 `json:"delivered"`
	Forwarded   uint64 `json:"forwarded"`
	Duplicates  uint64 `json:"duplicates"`
	Lookups     uint64 `json:"lookups"`
	TableFaults uint64 `json:"table_faults"`

	ChildrenAcked    uint64 `json:"children_acked"`
	Retries          uint64 `json:"retries"`
	Rerouted         uint64 `json:"rerouted"`
	SegmentsRepaired uint64 `json:"segments_repaired"`
	SegmentsLost     uint64 `json:"segments_lost"`
}

// String renders the snapshot as a compact single line.
func (c CountersSnapshot) String() string {
	return fmt.Sprintf(
		"delivered=%d forwarded=%d duplicates=%d lookups=%d table_faults=%d acked=%d retries=%d rerouted=%d repaired=%d lost=%d",
		c.Delivered, c.Forwarded, c.Duplicates, c.Lookups, c.TableFaults,
		c.ChildrenAcked, c.Retries, c.Rerouted, c.SegmentsRepaired, c.SegmentsLost)
}

// TraceEvent is one protocol event observed during replay: the obsv bus
// event (node, kind, detail) stamped with the index of the log record whose
// execution produced it. Under the serialized replay config the trace order
// is fully determined by the log, so the trace is compared event-for-event.
type TraceEvent struct {
	Step   int    `json:"step"` // index into Log.Records
	Node   string `json:"node"`
	Kind   string `json:"kind"` // obsv/trace kind: deliver, forward, repair, ...
	Detail string `json:"detail,omitempty"`
}

// String renders the event for divergence reports.
func (e TraceEvent) String() string {
	return fmt.Sprintf("step=%d node=%s kind=%s detail=%q", e.Step, e.Node, e.Kind, e.Detail)
}

// Outcome is everything a replay observably did.
type Outcome struct {
	// Deliveries maps each multicast message ID to the sorted addresses
	// that delivered it to the application.
	Deliveries map[string][]string
	// MsgIDs lists originated message IDs in submission order.
	MsgIDs []string
	// Counters aggregates runtime.Stats over every node ever created.
	Counters CountersSnapshot
	// Trace is the full ordered protocol-event stream.
	Trace []TraceEvent
}

// Divergence describes the first point where two replay outcomes disagree.
// Reason is machine-matchable ("trace", "trace-length", "msgids",
// "deliveries", "counters"); String renders the full diagnostic.
type Divergence struct {
	Reason string
	// Step is the log-record index at which the outcomes diverged (-1 when
	// the divergence is not tied to one record, e.g. counters-only).
	Step int
	// Index is the position in the trace (Reason "trace"/"trace-length")
	// or message list (Reason "msgids") of the first disagreement.
	Index int
	// A and B are the first diverging trace events (Reason "trace"; either
	// may be nil when one trace simply ended).
	A, B *TraceEvent
	// Detail carries reason-specific context (the message ID whose
	// delivery sets differ, the diverging msgid pair, ...).
	Detail string
	// CountersA and CountersB are both runs' full counter snapshots,
	// printed with every divergence so the blast radius is visible even
	// when the first diverging event looks innocuous.
	CountersA, CountersB CountersSnapshot
}

// String renders the divergence for logs and test failures: what diverged,
// the first diverging event with its obsv kind and step, and both runs'
// counter snapshots.
func (d *Divergence) String() string {
	if d == nil {
		return "<no divergence>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "replay divergence (%s)", d.Reason)
	if d.Step >= 0 {
		fmt.Fprintf(&b, " at step %d", d.Step)
	}
	switch d.Reason {
	case "trace", "trace-length":
		fmt.Fprintf(&b, ", trace index %d\n", d.Index)
		if d.A != nil {
			fmt.Fprintf(&b, "  run A: %s\n", d.A)
		} else {
			b.WriteString("  run A: <trace ended>\n")
		}
		if d.B != nil {
			fmt.Fprintf(&b, "  run B: %s\n", d.B)
		} else {
			b.WriteString("  run B: <trace ended>\n")
		}
	default:
		if d.Detail != "" {
			fmt.Fprintf(&b, ": %s\n", d.Detail)
		} else {
			b.WriteString("\n")
		}
	}
	fmt.Fprintf(&b, "  counters A: %s\n", d.CountersA)
	fmt.Fprintf(&b, "  counters B: %s", d.CountersB)
	return b.String()
}

// Compare checks two replay outcomes for equality and returns nil when they
// match, or a Divergence locating the first disagreement: the event trace
// is compared first (it pins divergence to a specific record and protocol
// event), then originated message IDs, then delivery sets, then the
// aggregate counters.
func Compare(a, b *Outcome) *Divergence {
	base := func(reason string, step, index int) *Divergence {
		return &Divergence{
			Reason: reason, Step: step, Index: index,
			CountersA: a.Counters, CountersB: b.Counters,
		}
	}

	n := len(a.Trace)
	if len(b.Trace) < n {
		n = len(b.Trace)
	}
	for i := 0; i < n; i++ {
		if a.Trace[i] != b.Trace[i] {
			d := base("trace", a.Trace[i].Step, i)
			ea, eb := a.Trace[i], b.Trace[i]
			d.A, d.B = &ea, &eb
			return d
		}
	}
	if len(a.Trace) != len(b.Trace) {
		d := base("trace-length", -1, n)
		if n < len(a.Trace) {
			e := a.Trace[n]
			d.A, d.Step = &e, e.Step
		}
		if n < len(b.Trace) {
			e := b.Trace[n]
			d.B, d.Step = &e, e.Step
		}
		return d
	}

	if len(a.MsgIDs) != len(b.MsgIDs) {
		d := base("msgids", -1, -1)
		d.Detail = fmt.Sprintf("run A originated %d messages, run B %d", len(a.MsgIDs), len(b.MsgIDs))
		return d
	}
	for i := range a.MsgIDs {
		if a.MsgIDs[i] != b.MsgIDs[i] {
			d := base("msgids", -1, i)
			d.Detail = fmt.Sprintf("message %d: run A %q, run B %q", i, a.MsgIDs[i], b.MsgIDs[i])
			return d
		}
	}

	ids := make(map[string]bool, len(a.Deliveries)+len(b.Deliveries))
	for id := range a.Deliveries {
		ids[id] = true
	}
	for id := range b.Deliveries {
		ids[id] = true
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	for _, id := range sorted {
		da, db := a.Deliveries[id], b.Deliveries[id]
		if !equalStrings(da, db) {
			d := base("deliveries", -1, -1)
			d.Detail = fmt.Sprintf("message %q delivered to %d members in run A, %d in run B (A-only: %v, B-only: %v)",
				id, len(da), len(db), diffStrings(da, db), diffStrings(db, da))
			return d
		}
	}

	if a.Counters != b.Counters {
		return base("counters", -1, -1)
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffStrings returns the elements of a (sorted) missing from b (sorted).
func diffStrings(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, s := range b {
		in[s] = true
	}
	var out []string
	for _, s := range a {
		if !in[s] {
			out = append(out, s)
		}
	}
	return out
}
