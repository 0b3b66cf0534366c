package maintain

import (
	"fmt"

	"github.com/arrayview/arrayview/internal/cluster"
)

// retiringSink is the optional capability of a durable sink that tracks
// an applied input-batch cursor (implemented by wal.Durable). Kept as a
// local assertion so cluster.DurableSink stays wal-free.
type retiringSink interface {
	CommitBarrierRetire() error
}

// durableCommit drives the cluster's durable sink (if one is installed)
// through a commit barrier: every store mutation and catalog/pending change
// of the batch becomes the crash-recovery point. A barrier failure fails
// the batch — the caller aborts, restoring in-memory state, so memory never
// runs ahead of what a restart would recover. With retire set the barrier
// additionally advances the sink's applied input-batch cursor (see
// Context.RetireOnCommit).
func durableCommit(cl *cluster.Cluster, retire bool) error {
	d := cl.Durable()
	if d == nil {
		return nil
	}
	barrier := d.CommitBarrier
	if rs, ok := d.(retiringSink); ok && retire {
		barrier = rs.CommitBarrierRetire
	}
	if err := barrier(); err != nil {
		return fmt.Errorf("maintain: durable commit barrier: %w", err)
	}
	return nil
}

// appliedSink is the optional capability of a durable sink that tracks the
// applied input-batch cursor (implemented by wal.Durable).
type appliedSink interface {
	Applied() uint64
	RetireBarrier() error
}

// RetireSkipped runs one input batch to its terminal state — apply, with
// whatever retries the caller owns — and, when that ended without a retiring
// commit barrier (every attempt failed, or the batch was a no-op that wrote
// no barrier at all), records the consumed batch with a skip barrier, so a
// restart resumes after it rather than replaying it against state that has
// moved on. It returns the skip barrier's error; a caller may ignore it,
// because resume then re-runs the batch from clean pre-batch state, which is
// safe. Barriers must be serialized with batch: one input batch at a time.
func RetireSkipped(cl *cluster.Cluster, batch func()) error {
	as, ok := cl.Durable().(appliedSink)
	if !ok {
		batch()
		return nil
	}
	before := as.Applied()
	batch()
	if as.Applied() != before {
		return nil
	}
	return as.RetireBarrier()
}

// durableRollback marks the restored pre-batch state as the recovery point
// after an abort. Best-effort like the rest of rollback: if the disk is
// failing too, recovery replays from the previous barrier, which is also
// pre-batch state.
func durableRollback(cl *cluster.Cluster) {
	if d := cl.Durable(); d != nil {
		_ = d.RollbackBarrier()
	}
}
