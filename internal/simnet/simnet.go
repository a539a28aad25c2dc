// Package simnet is a deterministic discrete-event simulator of the
// shared-nothing cluster network used during the shuffle join's data
// alignment phase.
//
// It models the environment of the paper's Sections 3.4 and 5.1: every node
// has a full-duplex link to a switched network, so a node may send and
// receive at the same time, but each node transmits at most one slice at a
// time and — via a coordinator-managed per-receiver write lock — each node
// receives at most one slice at a time. Transfer duration is proportional
// to the number of cells moved (the cost-model parameter t).
//
// The scheduler implements the greedy protocol of Section 3.4: when a
// sender is free it walks its outgoing slice queue in order and starts the
// first transfer whose destination lock is free; if every destination is
// locked it polls, waking when the earliest needed lock releases.
//
// Dispatch is resolved by an indexed event-driven scheduler (see sim.go
// and DESIGN.md §8): per-sender ring queues bucketed by destination, a
// min-heap of per-sender candidate dispatches keyed by (start, input
// position), and per-destination waiter buckets so a lock release
// re-evaluates only the senders blocked on it. The original rescan-
// everything loop lives on in test code (reference_test.go), and the two
// are held bit-for-bit equivalent by differential and fuzz tests.
package simnet

import (
	"fmt"

	"shufflejoin/internal/flight"
)

// Transfer is one slice movement: Cells cells from node From to node To.
// Tag carries caller context (e.g. a join unit id) through to the timeline.
type Transfer struct {
	From, To int
	Cells    int64
	Tag      int
}

// Scheduling selects the shuffle scheduling policy.
type Scheduling int

const (
	// GreedyLocks is the paper's scheduler: skip to the next slice whose
	// destination lock is free, polling only when all are held.
	GreedyLocks Scheduling = iota
	// FIFONoSkip is the ablation baseline: each sender insists on its queue
	// order, blocking on a busy receiver instead of skipping past it.
	FIFONoSkip
)

// Config parameterizes a simulation.
type Config struct {
	Nodes       int
	PerCellTime float64 // seconds to transmit one cell (cost parameter t)
	// Latency is a fixed per-transfer setup time (connection + first-byte
	// delay). Zero matches the paper's pure-bandwidth model; a positive
	// value penalizes plans that fragment data into many tiny slices. With
	// a positive Latency even a zero-cell remote transfer is simulated —
	// it occupies its sender and its receiver's write lock for the setup
	// time; with Latency zero, zero-cell transfers cost nothing and are
	// dropped like local ones.
	Latency    float64
	Scheduling Scheduling
	// OnComplete, when non-nil, is invoked synchronously from the event
	// loop once per dispatched transfer, in dispatch order. Dispatch order
	// is deterministic (ties broken by input position) and start times are
	// non-decreasing, so a consumer sees transfers "complete" in the same
	// order on every run — this is what lets the pipeline engine start a
	// join unit's cell comparison the moment its last inbound slice lands,
	// without a global alignment barrier and without losing determinism.
	// The callback must not mutate the transfers slice.
	OnComplete func(Event)
	// Flight, when non-nil, receives an align-done event (and a
	// hot-receiver event when lock contention was observed) after each
	// simulation, stamped with FlightQID. Pure telemetry: recording never
	// alters the simulated timeline or the Result.
	Flight    *flight.Recorder
	FlightQID uint32
}

// Event records one completed transfer in the simulated timeline.
type Event struct {
	Transfer
	Start, End float64
}

// Result summarizes a simulated data alignment phase.
type Result struct {
	Makespan     float64   // time at which the last transfer completes
	SendBusy     []float64 // per-node total time spent transmitting
	RecvBusy     []float64 // per-node total time spent receiving
	CellsSent    []int64   // per-node cells transmitted
	CellsRecv    []int64   // per-node cells received
	LockWaits    int       // times a sender had to poll with all locks held
	SkippedSends int       // times a sender skipped past a locked destination
	// RecvLockWait[j] is the simulated time senders spent stalled waiting
	// for node j's write lock (the gap between a sender becoming free and
	// its polled transfer starting, attributed to the destination). A
	// congestion diagnostic: a hot receiver shows up here before it shows
	// up in the makespan.
	RecvLockWait []float64
	LockWaitTime float64 // Σ_j RecvLockWait[j]
	// Timeline holds every simulated transfer in dispatch order, which is
	// also non-decreasing Start order by construction.
	Timeline []Event
}

// Clone returns a deep copy of the result, with its own backing arrays.
// Use it to retain a Result produced by a reused Sim instance past the
// instance's next Simulate call.
func (r Result) Clone() Result {
	r.SendBusy = append([]float64(nil), r.SendBusy...)
	r.RecvBusy = append([]float64(nil), r.RecvBusy...)
	r.CellsSent = append([]int64(nil), r.CellsSent...)
	r.CellsRecv = append([]int64(nil), r.CellsRecv...)
	r.RecvLockWait = append([]float64(nil), r.RecvLockWait...)
	r.Timeline = append([]Event(nil), r.Timeline...)
	return r
}

// Validate checks the configuration and transfers.
func (c Config) Validate(transfers []Transfer) error {
	if c.Nodes <= 0 {
		return fmt.Errorf("simnet: need at least one node, got %d", c.Nodes)
	}
	if c.PerCellTime < 0 {
		return fmt.Errorf("simnet: negative per-cell time %v", c.PerCellTime)
	}
	if c.Latency < 0 {
		return fmt.Errorf("simnet: negative latency %v", c.Latency)
	}
	for _, tr := range transfers {
		if tr.From < 0 || tr.From >= c.Nodes || tr.To < 0 || tr.To >= c.Nodes {
			return fmt.Errorf("simnet: transfer %+v outside node range [0,%d)", tr, c.Nodes)
		}
		if tr.Cells < 0 {
			return fmt.Errorf("simnet: negative transfer size %+v", tr)
		}
	}
	return nil
}

// Simulate runs the data alignment phase for the given transfers and
// returns the timing result. Transfers between a node and itself complete
// instantly (local slices are never shipped) and appear neither in the
// Timeline nor in OnComplete callbacks; the same applies to zero-cell
// transfers unless a positive Config.Latency charges their connection
// setup. The simulation is fully deterministic: ties are broken by the
// transfer's position in the input.
//
// Simulate allocates a fresh Result on every call. Callers running many
// simulations back to back (the pipeline's alignment stage, the bench
// sweeps) should reuse a Sim instance instead, which runs allocation-free
// in steady state.
func Simulate(cfg Config, transfers []Transfer) (Result, error) {
	// A throwaway instance: its buffers become the returned Result, so no
	// copy is needed and the result is independently owned.
	var s Sim
	return s.Simulate(cfg, transfers)
}

// MaxSendRecv returns max over nodes of total send time and of total
// receive time: the quantities the analytical model uses for the alignment
// phase estimate max(s, r) · t (Equations 5–6 are expressed in cells; these
// are the same maxima in seconds).
func (r Result) MaxSendRecv() (send, recv float64) {
	for i := range r.SendBusy {
		if r.SendBusy[i] > send {
			send = r.SendBusy[i]
		}
		if r.RecvBusy[i] > recv {
			recv = r.RecvBusy[i]
		}
	}
	return send, recv
}
