package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/arrayview/arrayview/internal/engine"
	"github.com/arrayview/arrayview/internal/wal"
	"github.com/arrayview/arrayview/internal/workload"
)

// DurableOverhead compares the wall-clock of the full batch sequence with
// and without the WAL-backed store attached: the price of journaling,
// fsync barriers, and checkpoint compaction on the maintenance path.
type DurableOverhead struct {
	Batches   int
	MemMillis float64
	DurMillis float64
	Ratio     float64
}

// DurableRung is one rung of the recovery ladder: commit k batches, crash,
// and measure how long Open + Install takes and whether the recovered
// state equals a clean replay of exactly those k batches.
type DurableRung struct {
	Batches       int
	WALBytes      int64
	SegBytes      int64
	ResidentBytes int64
	RecoverMillis float64
	StatesMatch   bool
}

// DurableCompaction is one row of the checkpoint-compaction comparison:
// the same batch sequence under a different CompactBytes threshold.
type DurableCompaction struct {
	CompactBytes  int64
	Checkpoints   int64
	ResidentBytes int64
	RecoverMillis float64
	StatesMatch   bool
}

// DurableFaultCase is one injected-fault run of the recovery matrix.
type DurableFaultCase struct {
	Class string
	Op    int64
	// Acked is the consecutive prefix of batches whose commits were
	// acknowledged before the first error.
	Acked     int
	Recovered bool
	// MatchedAt is the clean-replay prefix length the recovered state
	// equalled, or -1 if it matched none — a hybrid.
	MatchedAt int
	Violation bool
}

// DurableFaults aggregates the fault matrix.
type DurableFaults struct {
	Cases      int
	Recovered  int
	Violations int
	Detail     []DurableFaultCase
}

// DurableResult is the durable-store experiment: ingest overhead, the
// recovery ladder, checkpoint compaction, and the crash/fault matrix.
type DurableResult struct {
	Dataset  Dataset
	Mode     workload.BatchMode
	Nodes    int
	Batches  int
	Overhead DurableOverhead
	Ladder   []DurableRung
	Compact  []DurableCompaction
	Fault    DurableFaults
}

// Durable measures the WAL-backed chunk store: journaling overhead against
// the in-memory baseline, recovery time as a function of committed WAL
// length, the effect of checkpoint compaction, and a seeded fault matrix
// (kill -9, failed fsync, torn write) whose every recovery must land on a
// clean replay of some acknowledged-or-later batch prefix — never a
// hybrid. Everything runs on the in-memory FaultFS, so the experiment is
// deterministic and filesystem-speed rather than disk-speed.
func Durable(w io.Writer, spec Spec) (*DurableResult, error) {
	const strategy = "reassign"
	data, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	n := len(data.Batches)
	res := &DurableResult{Dataset: spec.Dataset, Mode: spec.Mode, Nodes: spec.Nodes, Batches: n}
	fmt.Fprintf(w, "Durable: %s/%s, %d nodes, %d batches, strategy %s\n",
		spec.Dataset, spec.Mode, spec.Nodes, n, strategy)

	run := durableRun{spec: spec, strategy: strategy, data: data}
	if err := run.cleanPrefixes(); err != nil {
		return nil, fmt.Errorf("bench: durable oracles: %w", err)
	}
	if err := run.overhead(w, res); err != nil {
		return nil, err
	}
	if err := run.ladder(w, res); err != nil {
		return nil, err
	}
	if err := run.compaction(w, res); err != nil {
		return nil, err
	}
	if err := run.faults(w, res); err != nil {
		return nil, err
	}
	return res, nil
}

// durableRun is what every part of the experiment shares: the seeded data
// and, per batch prefix, the state a clean (fault-free, unjournaled) replay
// of exactly that prefix leaves.
type durableRun struct {
	spec     Spec
	strategy string
	data     *workload.Dataset
	oracles  []endState
}

// open builds the spec's eager system over the data — the same prelude for
// clean replays, journaled runs and recoveries, so they are comparable — with
// the chunk stores journaled on fs when there is one.
func (r *durableRun) open(fs wal.FS, opts wal.Options) (*engine.Handle, error) {
	return r.spec.Open(r.data, func(c *engine.Config) { c.Strategy, c.FS, c.WAL = r.strategy, fs, opts })
}

// cleanPrefixes fills the oracles: one clean replay, read after every batch.
func (r *durableRun) cleanPrefixes() error {
	h, err := r.open(nil, wal.Options{})
	if err != nil {
		return err
	}
	defer h.Close()
	for k := 0; ; k++ {
		st, err := stateOf(h)
		if err != nil {
			return err
		}
		r.oracles = append(r.oracles, st)
		if k == len(r.data.Batches) {
			return nil
		}
		if _, err := h.Maintainer().ApplyBatch(r.data.Batches[k]); err != nil {
			return fmt.Errorf("clean replay of batch %d: %w", k, err)
		}
	}
}

// applyAll times the full batch sequence on a freshly opened system.
func (r *durableRun) applyAll(fs wal.FS, what string) (float64, error) {
	h, err := r.open(fs, wal.Options{})
	if err != nil {
		return 0, err
	}
	defer h.Close()
	start := time.Now()
	for i, b := range r.data.Batches {
		if _, err := h.Maintainer().ApplyBatch(b); err != nil {
			return 0, fmt.Errorf("bench: durable %s batch %d: %w", what, i, err)
		}
	}
	ms := time.Since(start).Seconds() * 1000
	return ms, h.Close() // the journaled run's close error counts
}

func (r *durableRun) overhead(w io.Writer, res *DurableResult) error {
	memMs, err := r.applyAll(nil, "baseline")
	if err != nil {
		return err
	}
	durMs, err := r.applyAll(wal.NewMemFS(), "journaled")
	if err != nil {
		return err
	}
	res.Overhead = DurableOverhead{Batches: len(r.data.Batches), MemMillis: memMs, DurMillis: durMs}
	if memMs > 0 {
		res.Overhead.Ratio = durMs / memMs
	}
	fmt.Fprintf(w, "overhead: in-memory %.1f ms, durable %.1f ms, ratio %.2fx\n",
		memMs, durMs, res.Overhead.Ratio)
	return nil
}

// commit runs the first k batches on a fresh system journaled on fs and
// returns it still open — a crash is the point.
func (r *durableRun) commit(fs wal.FS, opts wal.Options, k int) (*engine.Handle, error) {
	h, err := r.open(fs, opts)
	if err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		if _, err := h.Maintainer().ApplyBatch(r.data.Batches[i]); err != nil {
			h.Close()
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
	}
	return h, nil
}

// recoverOn crashes the FS and restarts the system on it, as the daemon
// does: open the WAL, install what it holds (or, when nothing was durable,
// load from the source again — Recovered() is nil then) and attach. It
// returns the restarted system and how long the restart took.
func (r *durableRun) recoverOn(fs *wal.FaultFS) (*engine.Handle, float64, error) {
	if fs.Crashed() {
		fs.Restart()
	} else {
		fs.Crash()
	}
	start := time.Now()
	h, err := r.open(fs, wal.Options{})
	return h, time.Since(start).Seconds() * 1000, err
}

// recoveredAt reports whether the restarted system was recovered at barrier
// k with exactly the state of the clean k-batch prefix.
func (r *durableRun) recoveredAt(h *engine.Handle, k int) (bool, error) {
	if rec := h.Recovered(); rec == nil || int(rec.Seq) != k {
		return false, nil
	}
	st, err := stateOf(h)
	return err == nil && st.equal(r.oracles[k]), err
}

func okFail(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}

func (r *durableRun) ladder(w io.Writer, res *DurableResult) error {
	fmt.Fprintf(w, "%-8s %12s %12s %12s %12s %6s\n",
		"batches", "wal(B)", "seg(B)", "resident(B)", "recover(ms)", "state")
	for k := 1; k <= len(r.data.Batches); k++ {
		fs := wal.NewMemFS()
		h, err := r.commit(fs, wal.Options{}, k)
		if err != nil {
			return fmt.Errorf("bench: durable ladder rung %d: %w", k, err)
		}
		snap := h.Durable().Counters().Snapshot()
		rung := DurableRung{
			Batches:       k,
			WALBytes:      snap.WALBytes,
			SegBytes:      snap.SegBytes,
			ResidentBytes: fs.TotalBytes(),
		}
		got, ms, err := r.recoverOn(fs)
		if err != nil {
			return fmt.Errorf("bench: durable ladder recover %d: %w", k, err)
		}
		rung.RecoverMillis = ms
		rung.StatesMatch, err = r.recoveredAt(got, k)
		got.Close()
		if err != nil {
			return err
		}
		res.Ladder = append(res.Ladder, rung)
		fmt.Fprintf(w, "%-8d %12d %12d %12d %12.2f %6s\n",
			rung.Batches, rung.WALBytes, rung.SegBytes, rung.ResidentBytes, rung.RecoverMillis, okFail(rung.StatesMatch))
	}
	return nil
}

func (r *durableRun) compaction(w io.Writer, res *DurableResult) error {
	n := len(r.data.Batches)
	fmt.Fprintf(w, "%-14s %12s %12s %12s %6s\n",
		"compact(B)", "checkpoints", "resident(B)", "recover(ms)", "state")
	for _, threshold := range []int64{1, 1 << 40} {
		fs := wal.NewMemFS()
		h, err := r.commit(fs, wal.Options{CompactBytes: threshold}, n)
		if err != nil {
			return fmt.Errorf("bench: durable compaction threshold %d: %w", threshold, err)
		}
		row := DurableCompaction{
			CompactBytes:  threshold,
			Checkpoints:   h.Durable().Counters().Snapshot().Checkpoints,
			ResidentBytes: fs.TotalBytes(),
		}
		got, ms, err := r.recoverOn(fs)
		if err != nil {
			return fmt.Errorf("bench: durable compaction recover: %w", err)
		}
		row.RecoverMillis = ms
		row.StatesMatch, err = r.recoveredAt(got, n)
		got.Close()
		if err != nil {
			return err
		}
		res.Compact = append(res.Compact, row)
		fmt.Fprintf(w, "%-14d %12d %12d %12.2f %6s\n",
			row.CompactBytes, row.Checkpoints, row.ResidentBytes, row.RecoverMillis, okFail(row.StatesMatch))
	}
	return nil
}

func (r *durableRun) faults(w io.Writer, res *DurableResult) error {
	n := len(r.data.Batches)

	// Fault-free probe: measure the total write/sync op count so fault ops
	// can be sampled across the whole run, recovery checkpoint included.
	probe := wal.NewMemFS()
	if _, err := r.commit(probe, wal.Options{}, n); err != nil {
		return fmt.Errorf("bench: durable fault probe: %w", err)
	}
	opsTotal := probe.Ops()

	type faultCase struct {
		class string
		plan  wal.FaultPlan
	}
	var cases []faultCase
	const crashSamples = 6
	for i := 0; i < crashSamples; i++ {
		op := 1 + opsTotal*int64(i)/crashSamples
		cases = append(cases, faultCase{"crash", wal.FaultPlan{Seed: 9000 + int64(i), CrashAtOp: op}})
	}
	for i := 0; i < 3; i++ {
		op := 1 + opsTotal*int64(2*i+1)/6
		cases = append(cases, faultCase{"failsync", wal.FaultPlan{Seed: 9100 + int64(i), FailSyncAtOp: op}})
		cases = append(cases, faultCase{"shortwrite", wal.FaultPlan{Seed: 9200 + int64(i), ShortWriteAtOp: op}})
	}

	fmt.Fprintf(w, "%-12s %8s %6s %10s %10s\n", "fault", "op", "acked", "recovered", "matched@")
	for _, fc := range cases {
		op := fc.plan.CrashAtOp + fc.plan.FailSyncAtOp + fc.plan.ShortWriteAtOp
		detail := DurableFaultCase{Class: fc.class, Op: op, MatchedAt: -1}
		fs := wal.NewFaultFS(fc.plan)

		// The faulty run: count the consecutive prefix of acknowledged
		// batches; errors past the fault are expected, not fatal.
		acked := 0
		if h, err := r.open(fs, wal.Options{}); err == nil {
			for acked < n {
				if _, err := h.Maintainer().ApplyBatch(r.data.Batches[acked]); err != nil {
					break
				}
				acked++
			}
		}
		detail.Acked = acked

		got, _, err := r.recoverOn(fs)
		switch {
		case err != nil:
			// Recovery itself failed: counted as unrecovered, gate trips.
		case got.Recovered() == nil:
			// Nothing durable: legal only if nothing was acknowledged —
			// the restart rebuilt from the source, i.e. prefix 0.
			detail.Recovered = true
			if acked == 0 {
				detail.MatchedAt = 0
			} else {
				detail.Violation = true
			}
		default:
			detail.Recovered = true
			st, err := stateOf(got)
			if err != nil {
				return err
			}
			// The recovery contract: the surviving state equals a clean
			// replay of the first k batches for some k >= every
			// acknowledged batch (unacknowledged-but-durable is legal;
			// a hybrid matches no prefix).
			for k := acked; k <= n; k++ {
				if st.equal(r.oracles[k]) {
					detail.MatchedAt = k
					break
				}
			}
			if detail.MatchedAt < 0 {
				detail.Violation = true
			}
		}
		if got != nil {
			got.Close()
		}

		res.Fault.Cases++
		if detail.Recovered {
			res.Fault.Recovered++
		}
		if detail.Violation {
			res.Fault.Violations++
		}
		res.Fault.Detail = append(res.Fault.Detail, detail)
		fmt.Fprintf(w, "%-12s %8d %6d %10t %10d\n",
			detail.Class, detail.Op, detail.Acked, detail.Recovered, detail.MatchedAt)
	}
	fmt.Fprintf(w, "fault matrix: %d cases, %d recovered, %d violations\n",
		res.Fault.Cases, res.Fault.Recovered, res.Fault.Violations)
	return nil
}
