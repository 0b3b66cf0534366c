package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// ladderBatches is how many extra batches the final repetition of
// durable-trickle submits one at a time, reopening the directory after
// each. Recovery replays the log written since the last checkpoint, so its
// time is a sawtooth over the batches; the ladder spans two checkpoint
// periods and recovery_ms is its median.
const ladderBatches = 24

// durableRep is one repetition of durable-trickle.
type durableRep struct {
	eng   *engine
	ds    *dataset
	dir   string
	wall  time.Duration
	ackMs []float64
	cells int
	info  streamInfo
	wal   walInfo // growth over the timed region
}

// timedBatches is how many batches of the dataset the timed region ingests;
// the rest are the recovery ladder's.
func (r *run) timedBatches(ds *dataset) int { return ds.numBatches() - r.ladder() }

func (r *run) ladder() int {
	if r.opt.smoke {
		return 3
	}
	return ladderBatches
}

func (r *run) durableOnce(rep int, traced bool) (*durableRep, error) {
	runtime.GC()
	dir, err := r.scratchDir()
	if err != nil {
		return nil, err
	}
	gen := r.gen
	gen.Batches += r.ladder()
	t0 := time.Now()
	ds, err := genDataset(gen, r.subSeed(rep))
	if err != nil {
		return nil, err
	}
	eng, err := newEngine(ds, localFabric, nil)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = r.tr
	}
	if err := eng.attachWAL(dir, tr); err != nil {
		return nil, err
	}
	if err := eng.startStream(); err != nil {
		return nil, err
	}
	setup := time.Since(t0).Seconds()
	r.setupS = append(r.setupS, setup)
	if r.res.Sizes.BaseCells == 0 {
		r.res.Sizes.BaseCells, r.res.Sizes.BaseChunks = ds.baseCells(), ds.baseChunks()
	}
	n := r.timedBatches(ds)
	out := &durableRep{eng: eng, ds: ds, dir: dir, ackMs: make([]float64, n)}
	base := eng.walInfo() // the attach checkpoint is set-up, not ingest

	before := readProc()
	var ingestSpan int32
	var leave func()
	if traced {
		ingestSpan = r.tr.begin(int32(rep+1), 0, "stream", "ingest")
		leave = r.tr.enter(int32(rep+1), ingestSpan)
	}
	began := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		s := time.Now()
		wait, err := eng.submit(i)
		if !r.op(err) {
			return nil, err
		}
		out.cells += ds.batchCells(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = wait()
			out.ackMs[i] = ms(time.Since(s))
		}(i)
	}
	out.info = eng.drainStream()
	wg.Wait()
	out.wall = time.Since(began)
	if traced {
		leave()
		r.tr.end(ingestSpan)
	} else {
		r.proc = r.proc.add(readProc().sub(before))
		r.procBatches += n
	}
	for i, err := range errs {
		if err != nil {
			r.res.Failed++
			r.res.Checks = append(r.res.Checks, check{Name: "batch-acked", Detail: fmt.Sprintf("batch %d: %v", i, err)})
		}
	}
	out.wal = eng.walInfo().sub(base)
	r.repDone(repStat{
		Seed: r.subSeed(rep), Traced: traced, Batches: n, SetupS: setup, WallS: out.wall.Seconds(),
		CellsPerS: ratio(float64(out.cells), out.wall.Seconds()), BatchMsP50: median(out.ackMs),
	}, out.cells)
	return out, nil
}

// eagerReplay is durable-trickle's oracle: the first n batches through the
// eager in-memory maintainer.
func (r *run) eagerReplay(ds *dataset, n int) (*state, error) {
	eng, err := newEngine(ds, localFabric, nil)
	if err != nil {
		return nil, err
	}
	defer eng.close()
	for i := 0; i < n; i++ {
		if _, err := eng.applyBatch(i); err != nil {
			return nil, err
		}
	}
	return eng.state()
}

func (r *run) runDurable() error {
	if r.opt.trace {
		return r.runDurableTraced()
	}
	var used time.Duration
	for rep := 0; used < r.limit(); rep++ {
		out, err := r.durableOnce(rep, false)
		if err != nil {
			return err
		}
		used += out.wall
		r.batchMs = append(r.batchMs, out.ackMs...)
		r.cells += out.cells
		r.ingestWallS += out.wall.Seconds()
		var delta float64
		for i := 0; i < len(out.ackMs); i++ {
			delta += float64(out.ds.batchEncodedBytes(i))
		}
		r.writeAmp = append(r.writeAmp, ratio(float64(out.wal.WALBytes+out.wal.SegBytes), delta))
		final := used >= r.limit()
		if final {
			r.peakRSS = peakRSSMiB()
			err = r.recoveryLadder(out)
		} else {
			var st *state
			if st, err = out.eng.state(); err == nil {
				if err = r.readBack(out.eng, st); err == nil {
					err = out.eng.closeWAL()
				}
			}
		}
		out.eng.close()
		if err != nil {
			return err
		}
	}
	return nil
}

// recoveryLadder is the final repetition's epilogue. The store is never
// closed: every reopening reads the directory as kill -9 at that moment
// would have left it.
func (r *run) recoveryLadder(rep *durableRep) error {
	eng, ds := rep.eng, rep.ds
	n := len(rep.ackMs)
	if err := eng.startStream(); err != nil {
		return err
	}
	for i := n; i < ds.numBatches(); i++ {
		wait, err := eng.submit(i)
		if !r.op(err) {
			return err
		}
		if err := wait(); !r.op(err) {
			return err
		}
		applied, err := r.recoverOnce(ds, rep.dir, nil)
		if err != nil {
			return err
		}
		if int(applied) != i+1 {
			r.check("acked-batches-applied", false, "after acking batch %d the recovered applied cursor reads %d", i+1, applied)
		}
	}
	eng.drainStream()

	want, err := r.eagerReplay(ds, ds.numBatches())
	if err != nil {
		return err
	}
	if err := r.checkView(want); err != nil {
		return err
	}
	applied, err := r.recoverOnce(ds, rep.dir, want)
	if err != nil {
		return err
	}
	r.check("acked-batches-applied", int(applied) == ds.numBatches(), "recovered applied cursor %d of %d acked batches", applied, ds.numBatches())
	return r.readBack(eng, want)
}

// runDurableTraced: a warm-up repetition, an untraced reference, then the
// same seed with the span FS and the span sink in place, then more traced
// repetitions while the time lasts.
func (r *run) runDurableTraced() error {
	warm, err := r.durableOnce(0, false) // see runIngestTraced
	if err != nil {
		return err
	}
	err = warm.eng.closeWAL()
	warm.eng.close()
	if err != nil {
		return err
	}
	r.proc, r.procBatches = procSample{}, 0
	ref, err := r.durableOnce(0, false)
	if err != nil {
		return err
	}
	err = ref.eng.closeWAL()
	ref.eng.close()
	if err != nil {
		return err
	}
	n := len(ref.ackMs)
	want, err := r.eagerReplay(ref.ds, n)
	if err != nil {
		return err
	}
	if err := r.checkView(want); err != nil {
		return err
	}
	r.procLayer()

	deadline := time.Now().Add(r.limit())
	var info streamInfo
	var wi walInfo
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		out, err := r.durableOnce(rep, true)
		if err != nil {
			return err
		}
		out.eng.close() // abandoned, not closed: the recoveries below read a crashed store
		r.batchMs = append(r.batchMs, out.ackMs...)
		info = addStream(info, out.info)
		wi = wi.add(out.wal)
		if rep > 0 {
			continue
		}
		r.set("wal.dir_mb_end", dirMiB(out.dir))
		r.set("trace_overhead_pct", 100*(out.wall.Seconds()-ref.wall.Seconds())/ref.wall.Seconds())
		for i := 0; i < 5; i++ {
			if _, err := r.recoverOnce(out.ds, out.dir, want); err != nil {
				return err
			}
		}
	}
	r.set("stream.submit_to_ack_ms_p50", median(r.batchMs))
	r.set("stream.router_solves", float64(info.Solves))
	r.set("stream.router_reuses", float64(info.Reuses))
	r.set("stream.retries", float64(info.Retries))
	for _, st := range []struct{ metric, stage string }{{"transfer", "transfer"}, {"join", "join"}, {"commit", "sink"}} {
		r.set("stream."+st.metric+"_busy_s", info.Busy[st.stage])
		r.set("stream."+st.metric+"_stall_s", info.Stall[st.stage])
	}
	nb := float64(len(r.batchMs))
	r.set("wal.write_mb_per_batch", float64(wi.WALBytes+wi.SegBytes)/(1<<20)/nb)
	r.set("wal.fsyncs_per_batch", float64(wi.Syncs)/nb)
	r.set("wal.checkpoints", float64(wi.Checkpoints))
	return nil
}

func addStream(a, b streamInfo) streamInfo {
	out := streamInfo{
		Solves: a.Solves + b.Solves, Reuses: a.Reuses + b.Reuses, Retries: a.Retries + b.Retries,
		Busy: make(map[string]float64), Stall: make(map[string]float64),
	}
	for _, m := range []streamInfo{a, b} {
		for k, v := range m.Busy {
			out.Busy[k] += v
		}
		for k, v := range m.Stall {
			out.Stall[k] += v
		}
	}
	return out
}

// dirMiB is the size of every file under dir.
func dirMiB(dir string) float64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return float64(n) / (1 << 20)
}
