package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	iofs "io/fs"
	"strings"
	"sync"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/storage"
)

// Options configures a Durable store.
type Options struct {
	// CompactBytes checkpoints the store into a fresh generation whenever
	// the logs grow past this many bytes since the last checkpoint,
	// bounding both disk usage and recovery replay length. <= 0 uses
	// DefaultCompactBytes; set very large to effectively disable.
	CompactBytes int64
}

// DefaultCompactBytes is the default checkpoint-compaction threshold.
const DefaultCompactBytes int64 = 8 << 20

// Durable is the WAL-backed on-disk half of a cluster's chunk stores. Once
// attached it journals every durable mutation of every worker store and
// writes one meta-log barrier per committed (or rolled-back) maintenance
// batch: fsync segments, fsync journals, then append + fsync a meta record
// holding the per-journal cut offsets, the catalog's change since the
// previous record, and the pending-log snapshot. That single synced record
// is the atomic commit point — recovery replays each journal exactly to
// its cut and folds the meta log up to the record, so a crash anywhere
// lands on the last barrier's state, never between batches.
//
// The coordinator's own store is deliberately not journaled: it only ever
// holds scratch ("#") content — staged deltas and staging namespaces —
// which recovery starts empty, exactly as batch cleanup would have left
// it. Durable coordinator state (catalog, pending log, epoch) rides in
// the meta records instead.
type Durable struct {
	fs       FS
	nodes    int
	opts     Options
	counters obs.DurableCounters

	mu       sync.Mutex
	cl       *cluster.Cluster
	gen      int64
	journals []*journal
	meta     File
	metaOff  int64
	metaBase int64
	seq      uint64
	applied  uint64
	// cat is the catalog as the records written so far fold to, one
	// digest per chunk: the next barrier's diff is taken against it. It
	// advances as soon as a record's bytes are in the log, and never
	// otherwise, so a record that failed to be written leaves its changes
	// for the next one.
	cat catState[uint64]
	// failed latches the store fail-stop once its on-disk layout may no
	// longer match what recovery would read — a torn meta append, or any
	// mid-checkpoint failure (journals already reset to the next
	// generation while CURRENT still names the old one). Every subsequent
	// barrier and Sync fails until the store is reopened, so an ack can
	// never outrun recoverable state.
	failed error
}

// Recovered is the state read back from disk by Open: per-node chunk
// encodings, and the catalog/pending/epoch snapshot of the last barrier.
type Recovered struct {
	// Seq and Kind identify the last barrier: Seq commit/rollback
	// barriers were written before the crash (checkpoints do not advance
	// it), Kind is what the last one was.
	Seq  uint64
	Kind string
	// Applied counts the top-level input batches durably consumed before
	// the crash — the resume cursor into the input feed. Unlike Seq it is
	// immune to extra barriers (deferred-delta appends, pending-log
	// materializations, rollback/retry pairs), which carry it forward
	// without advancing it.
	Applied uint64
	// Epoch is the epoch counter to fast-forward to.
	Epoch uint64
	// Nodes maps, per worker node, array name → chunk key → encoding.
	Nodes []map[string]map[array.ChunkKey][]byte

	catalog []catArray
	pending []pendingRec
}

// Open reads (or initializes) the durable store rooted at the FS. When an
// earlier generation exists its state is recovered and returned; the
// caller installs it into a fresh cluster with Recovered.Install, then
// calls Attach. A nil Recovered means a fresh directory.
func Open(fs FS, nodes int, opts Options) (*Durable, *Recovered, error) {
	if opts.CompactBytes <= 0 {
		opts.CompactBytes = DefaultCompactBytes
	}
	if err := fs.MkdirAll("."); err != nil {
		return nil, nil, err
	}
	d := &Durable{fs: fs, nodes: nodes, opts: opts}

	cur, err := fs.ReadFile("CURRENT")
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			// Fresh directory: no durable state yet.
			return d, nil, nil
		}
		return nil, nil, err
	}
	gen, diffs, err := parseCurrent(cur)
	if err != nil {
		return nil, nil, err
	}
	dir := fmt.Sprintf("gen-%d", gen)

	metaData, err := fs.ReadFile(dir + "/meta.wal")
	if err != nil {
		return nil, nil, fmt.Errorf("wal: current generation lost its meta log: %w", err)
	}
	rec, catalog, err := foldMeta(metaData, diffs)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: meta log of %s: %w", dir, err)
	}
	if rec == nil {
		return nil, nil, fmt.Errorf("wal: meta log of %s holds no valid barrier", dir)
	}
	if len(rec.Cuts) != nodes {
		return nil, nil, fmt.Errorf("wal: barrier covers %d nodes, cluster has %d", len(rec.Cuts), nodes)
	}

	r := &Recovered{
		Seq:     rec.Seq,
		Kind:    rec.Kind,
		Applied: rec.Applied,
		Epoch:   rec.Epoch,
		Nodes:   make([]map[string]map[array.ChunkKey][]byte, nodes),
		catalog: catalog,
		pending: rec.Pending,
	}
	for i := 0; i < nodes; i++ {
		walData, werr := fs.ReadFile(fmt.Sprintf("%s/node-%d.wal", dir, i))
		segData, serr := fs.ReadFile(fmt.Sprintf("%s/node-%d.seg", dir, i))
		if werr != nil || serr != nil {
			if rec.Cuts[i] == 0 {
				r.Nodes[i] = map[string]map[array.ChunkKey][]byte{}
				continue
			}
			return nil, nil, fmt.Errorf("wal: node %d logs missing with nonzero cut %d", i, rec.Cuts[i])
		}
		chunks, err := replayJournal(walData, segData, rec.Cuts[i])
		if err != nil {
			return nil, nil, fmt.Errorf("wal: node %d: %w", i, err)
		}
		r.Nodes[i] = chunks
	}
	d.gen = gen
	d.seq = rec.Seq
	d.applied = rec.Applied
	return d, r, nil
}

// Install loads the recovered state into a freshly built cluster: chunks
// into the worker stores, the catalog and pending-log snapshots, and the
// epoch counter. Call before Attach and before the cluster takes traffic.
//
// The catalog snapshot is the authority on what was committed. A journaled
// body the catalog does not reference is dropped (e.g. a replica ship of a
// pipelined successor batch that raced the barrier), and a catalog replica
// pointer whose body did not make the cut is skipped — replicas are an
// availability optimization, so dropping an un-backed one is always safe.
// Only a missing home body is real corruption and fails recovery.
func (r *Recovered) Install(cl *cluster.Cluster) error {
	if len(r.Nodes) != cl.NumNodes() {
		return fmt.Errorf("wal: recovered %d nodes, cluster has %d", len(r.Nodes), cl.NumNodes())
	}
	for i := range r.Nodes {
		if cl.Node(i).Store == nil {
			return fmt.Errorf("wal: node %d has no local store (durability requires the in-process fabric)", i)
		}
	}
	body := func(node int, name string, key array.ChunkKey) ([]byte, bool) {
		if node < 0 || node >= len(r.Nodes) {
			return nil, false
		}
		enc, ok := r.Nodes[node][name][key]
		return enc, ok
	}
	cat := cl.Catalog()
	for _, ca := range r.catalog {
		if err := cat.Register(ca.Schema); err != nil {
			return fmt.Errorf("wal: restore catalog: %w", err)
		}
		for _, cc := range ca.Chunks {
			k := array.ChunkKey(cc.Key)
			enc, ok := body(cc.Home, ca.Name, k)
			if !ok {
				return fmt.Errorf("wal: home body of %s/%x missing from node %d's recovered journal", ca.Name, cc.Key, cc.Home)
			}
			if err := cl.Node(cc.Home).Store.PutEncoded(ca.Name, k, enc); err != nil {
				return err
			}
			if err := cat.SetChunk(ca.Name, k, cc.Home, cc.Size, cc.Cells); err != nil {
				return err
			}
			for _, rep := range cc.Replicas {
				if rep == cc.Home {
					continue
				}
				enc, ok := body(rep, ca.Name, k)
				if !ok {
					continue // un-backed replica pointer: raced the barrier
				}
				if err := cl.Node(rep).Store.PutEncoded(ca.Name, k, enc); err != nil {
					return err
				}
				if err := cat.AddReplica(ca.Name, k, rep); err != nil {
					return err
				}
			}
			if cc.BBox != nil {
				if err := cat.SetChunkBBox(ca.Name, k, *cc.BBox); err != nil {
					return err
				}
			}
			if cc.Hash != nil {
				if err := cat.SetChunkHash(ca.Name, k, *cc.Hash, cc.EncSize); err != nil {
					return err
				}
			}
		}
	}
	if err := importPending(cl.Catalog(), r.pending); err != nil {
		return err
	}
	cl.Epochs().FastForward(r.Epoch)
	return nil
}

// Counters returns the durability counters for stats surfaces.
func (d *Durable) Counters() *obs.DurableCounters { return &d.counters }

// Seq returns the barrier sequence number (commits + rollbacks so far).
func (d *Durable) Seq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seq
}

// Applied returns the durable applied-input-batch cursor: how many
// top-level batches have been retired by a barrier. Batch consumers
// compare it across an apply to detect batches that terminated without
// retiring (see RetireBarrier).
func (d *Durable) Applied() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.applied
}

// Attach binds the durable store to the cluster: it checkpoints the
// cluster's current state into a fresh generation (which also compacts
// away the recovered logs), installs a journal on every worker store, and
// registers itself as the cluster's durable sink so the maintenance layer
// issues barriers. Call once, after initial load (or Recovered.Install)
// and before maintenance starts.
func (d *Durable) Attach(cl *cluster.Cluster) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cl != nil {
		return fmt.Errorf("wal: already attached")
	}
	for i := 0; i < cl.NumNodes(); i++ {
		if cl.Node(i).Store == nil {
			return fmt.Errorf("wal: node %d has no local store (durability requires the in-process fabric)", i)
		}
	}
	if cl.NumNodes() != d.nodes {
		return fmt.Errorf("wal: opened for %d nodes, cluster has %d", d.nodes, cl.NumNodes())
	}
	d.cl = cl
	d.journals = make([]*journal, d.nodes)
	for i := range d.journals {
		d.journals[i] = newJournal(i, &d.counters)
	}
	if err := d.checkpointLocked(cl.Epochs().Current()); err != nil {
		d.cl = nil
		return err
	}
	for i := 0; i < d.nodes; i++ {
		cl.Node(i).Store.SetJournal(d.journals[i])
	}
	cl.SetDurable(d)
	return nil
}

// CommitBarrier makes the current cluster state the durable recovery
// point. The maintenance layer calls it after every successful batch
// commit (and after deferring deltas to the pending log).
func (d *Durable) CommitBarrier() error { return d.barrier("commit", false) }

// CommitBarrierRetire is CommitBarrier plus advancing the applied-batch
// cursor: this barrier marks one top-level input batch fully durable.
// The maintenance layer issues it for batches flagged RetireOnCommit and
// the plain CommitBarrier for everything else (pending-log
// materializations, the eager half of a split batch, promotions).
func (d *Durable) CommitBarrierRetire() error { return d.barrier("commit", true) }

// RollbackBarrier records a rollback boundary: same consistent-cut
// mechanics as a commit, marking the restored pre-batch state durable.
// It never advances the applied cursor — a rolled-back batch was not
// consumed.
func (d *Durable) RollbackBarrier() error { return d.barrier("rollback", false) }

// RetireBarrier records that one input batch terminated without a
// retiring commit of its own — it failed and was skipped, or was a no-op
// that wrote no barrier at all. Batch consumers (the serve loop, the
// stream sink) call it when Applied did not advance across a terminal
// batch, keeping the resume cursor aligned with the input sequence.
func (d *Durable) RetireBarrier() error { return d.barrier("skip", true) }

func (d *Durable) barrier(kind string, retire bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cl == nil {
		return &storage.DurabilityError{Op: "sync", Err: fmt.Errorf("wal: barrier before Attach")}
	}
	if d.failed != nil {
		return &storage.DurabilityError{Op: "sync", Err: d.failed}
	}
	cuts := make([]int64, len(d.journals))
	for i, j := range d.journals {
		c, err := j.sync()
		if err != nil {
			return &storage.DurabilityError{Op: "sync", Err: err}
		}
		cuts[i] = c
	}
	applied := d.applied
	if retire {
		applied++
	}
	// Epochs publish right after commit/rollback returns, so the barrier
	// names the epoch about to be published; FastForward is max-based, so
	// overshooting by one on paths that skip the publish is harmless.
	epoch := d.cl.Epochs().Current() + 1
	rec := metaRecord{
		Kind:    kind,
		Seq:     d.seq + 1,
		Applied: applied,
		Epoch:   epoch,
		Cuts:    cuts,
		Diff:    diffCatalog(d.cl.Catalog(), d.cat),
		Pending: exportPending(d.cl.Catalog()),
	}
	if err := d.appendMetaLocked(rec); err != nil {
		return &storage.DurabilityError{Op: "sync", Err: err}
	}
	d.seq++
	d.applied = applied
	if kind == "commit" {
		d.counters.Commits.Add(1)
	} else {
		d.counters.Rollbacks.Add(1)
	}
	// The barrier's record is already synced above — the commit point is
	// durable in the current generation — so a failed compaction
	// checkpoint must NOT fail the barrier: the caller would roll back
	// in-memory state that recovery resurrects. It latches the store
	// fail-stop instead (see checkpointLocked), failing every subsequent
	// barrier until reopen.
	if d.growthLocked() > d.opts.CompactBytes {
		_ = d.checkpointLocked(epoch)
	}
	return nil
}

// appendMetaLocked frames, writes, and fsyncs one meta record. A torn
// write latches the store fail-stop (partial frame bytes would corrupt
// every later append); a failed fsync does not — the bytes are intact,
// only not yet durable, so the barrier is retryable (mirroring the
// per-node journal convention). The tracked catalog advances once the
// bytes are written, fsynced or not: the next record chains onto this
// one either way, since a crash keeps a synced record only with every
// record before it.
func (d *Durable) appendMetaLocked(rec metaRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	buf := appendFrame(nil, payload)
	n, err := d.meta.Write(buf)
	d.metaOff += int64(n)
	if err != nil {
		d.failed = fmt.Errorf("wal: meta log torn at %d: %w", d.metaOff, err)
		return d.failed
	}
	if rec.Diff != nil {
		_ = d.cat.apply(rec.Diff, (*catChunk).sum) // taken against d.cat: it fits
	} else {
		d.cat = stateOf(rec.Catalog, (*catChunk).sum)
	}
	if err := d.meta.Sync(); err != nil {
		return fmt.Errorf("wal: meta fsync: %w", err)
	}
	d.counters.WALBytes.Add(int64(len(buf)))
	d.counters.Syncs.Add(1)
	return nil
}

// growthLocked returns log bytes accumulated since the last checkpoint.
func (d *Durable) growthLocked() int64 {
	total := d.metaOff - d.metaBase
	for _, j := range d.journals {
		total += j.growth()
	}
	return total
}

// checkpointLocked writes a new generation and latches the store
// fail-stop if anything goes wrong partway: the journals are reset to the
// new generation's files early, so a later failure (Create, SyncDir, the
// CURRENT flip, the base barrier) leaves them pointing at gen-N+1 while
// CURRENT still names gen-N — a subsequent barrier would then ack cuts
// recovery can never read. A crash instead of an error is fine at every
// step (recovery uses the old generation until the CURRENT rename is
// synced); it is only *continuing in-process* that must be fenced.
// Reopening recovers from the still-valid old generation.
func (d *Durable) checkpointLocked(epoch uint64) error {
	if err := d.writeCheckpointLocked(epoch); err != nil {
		if d.failed == nil {
			d.failed = fmt.Errorf("wal: checkpoint failed midway: %w", err)
		}
		return err
	}
	return nil
}

// writeCheckpointLocked writes the cluster's full current state into a
// fresh generation and flips CURRENT to it: per-node segments/journals
// rebuilt from the live stores (content-hash dedup intact), a meta log
// opened with one base barrier, tmp+rename+dirsync for the manifest flip,
// and the old generation removed. Crash-safe at every step — until the
// CURRENT rename is synced, recovery still uses the previous generation,
// and a stray half-written generation is cleared on the next attempt.
func (d *Durable) writeCheckpointLocked(epoch uint64) error {
	newGen := d.gen + 1
	dir := fmt.Sprintf("gen-%d", newGen)
	_ = d.fs.RemoveAll(dir) // stray from an earlier crashed checkpoint
	if err := d.fs.MkdirAll(dir); err != nil {
		return err
	}
	cuts := make([]int64, d.nodes)
	for i, j := range d.journals {
		seg, err := d.fs.Create(fmt.Sprintf("%s/node-%d.seg", dir, i))
		if err != nil {
			return err
		}
		walf, err := d.fs.Create(fmt.Sprintf("%s/node-%d.wal", dir, i))
		if err != nil {
			return err
		}
		if err := j.reset(seg, walf); err != nil {
			return err
		}
		err = d.cl.Node(i).Store.EachEncoded(func(arrayName string, key array.ChunkKey, enc []byte, hash uint64) error {
			return j.JournalPut(arrayName, key, enc, hash)
		})
		if err != nil {
			return err
		}
		if cuts[i], err = j.sync(); err != nil {
			return err
		}
		j.markBase()
	}
	meta, err := d.fs.Create(dir + "/meta.wal")
	if err != nil {
		return err
	}
	oldMeta, oldOff, oldBase := d.meta, d.metaOff, d.metaBase
	d.meta, d.metaOff, d.metaBase = meta, 0, 0
	rec := metaRecord{
		Kind:    "checkpoint",
		Seq:     d.seq,
		Applied: d.applied,
		Epoch:   epoch,
		Cuts:    cuts,
		Catalog: exportCatalog(d.cl.Catalog()),
		Pending: exportPending(d.cl.Catalog()),
	}
	if err := d.appendMetaLocked(rec); err != nil {
		d.meta, d.metaOff, d.metaBase = oldMeta, oldOff, oldBase
		return err
	}
	if err := d.fs.SyncDir(dir); err != nil {
		return err
	}
	// Flip the manifest: the synced rename is the checkpoint's atomic
	// commit point.
	cur, err := d.fs.Create("CURRENT.tmp")
	if err != nil {
		return err
	}
	if _, err := cur.Write([]byte(diffFormat + dir + "\n")); err != nil {
		return err
	}
	if err := cur.Sync(); err != nil {
		return err
	}
	if err := cur.Close(); err != nil {
		return err
	}
	if err := d.fs.Rename("CURRENT.tmp", "CURRENT"); err != nil {
		return err
	}
	if err := d.fs.SyncDir("."); err != nil {
		return err
	}
	d.counters.Syncs.Add(3)
	if oldMeta != nil {
		_ = oldMeta.Close()
	}
	if d.gen > 0 {
		_ = d.fs.RemoveAll(fmt.Sprintf("gen-%d", d.gen)) // best-effort
	}
	d.gen = newGen
	d.counters.Checkpoints.Add(1)
	return nil
}

// diffFormat prefixes CURRENT in a directory whose meta logs hold diff
// records. Directories written before diffs name their generation as a
// bare "gen-N", and every record there is full; the parser of that format
// rejects the prefix, so an older build refuses a newer directory instead
// of reading a diff record as an empty catalog.
const diffFormat = "v2 "

// parseCurrent reads the manifest: the live generation, and whether its
// meta log may hold diff records.
func parseCurrent(cur []byte) (gen int64, diffs bool, err error) {
	s, diffs := strings.CutPrefix(string(cur), diffFormat)
	if _, err := fmt.Sscanf(s, "gen-%d", &gen); err != nil || gen <= 0 {
		return 0, false, fmt.Errorf("wal: malformed CURRENT %q", cur)
	}
	return gen, diffs, nil
}

// Sync flushes and fsyncs every open log without writing a barrier (the
// graceful-shutdown flush; committed state is already durable).
func (d *Durable) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed != nil {
		return &storage.DurabilityError{Op: "sync", Err: d.failed}
	}
	for _, j := range d.journals {
		if _, err := j.sync(); err != nil {
			return &storage.DurabilityError{Op: "sync", Err: err}
		}
	}
	if d.meta != nil {
		if err := d.meta.Sync(); err != nil {
			return &storage.DurabilityError{Op: "sync", Err: err}
		}
		d.counters.Syncs.Add(1)
	}
	return nil
}

// Close syncs and closes every log and detaches from the cluster. Close
// errors are surfaced, not swallowed: a failed close means the last
// unsynced appends may not be durable.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cl != nil {
		for i := 0; i < d.nodes; i++ {
			d.cl.Node(i).Store.SetJournal(nil)
		}
		d.cl.SetDurable(nil)
	}
	var firstErr error
	for _, j := range d.journals {
		if err := j.close(); err != nil && firstErr == nil {
			firstErr = &storage.DurabilityError{Op: "close", Err: err}
		}
	}
	d.journals = nil
	if d.meta != nil {
		if err := d.meta.Sync(); err != nil && firstErr == nil {
			firstErr = &storage.DurabilityError{Op: "close", Err: err}
		}
		if err := d.meta.Close(); err != nil && firstErr == nil {
			firstErr = &storage.DurabilityError{Op: "close", Err: err}
		}
		d.meta = nil
	}
	d.cl = nil
	return firstErr
}
