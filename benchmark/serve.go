package main

import (
	"runtime"
	"sync/atomic"
	"time"
)

// recorded is one answer kept for the oracle: the first of its class at its
// epoch.
type recorded struct {
	q     int
	epoch uint64
	fp    uint64
}

// serveLeg is one repetition of serve-mixed-tcp: its own dataset, its own
// serving stack, batches on a fixed schedule and one closed-loop client.
type serveLeg struct {
	eng       *engine
	ds        *dataset
	epoch0    uint64
	epochs    []uint64 // the epoch current after batch i
	batchMs   []float64
	serviceMs []float64
	lateMs    []float64
	cells     int
	wall      time.Duration

	// written by the client goroutine, read after it has stopped
	qAll, qRepeat, qCold  []float64
	useView               int
	recorded              []recorded
	replyKB, wireMs       []float64
	inprocRep, inprocCold []float64

	answered atomic.Int64 // queries answered so far, read by the batch driver
	info     serveInfo
}

// interval is the pace of a leg's batch schedule.
func (r *run) interval() time.Duration {
	if r.opt.smoke {
		return r.cfg.smokeInterval
	}
	return r.cfg.interval
}

func (r *run) serveOnce(rep int, traced bool) (*serveLeg, error) {
	batches, interval := r.gen.Batches, r.interval()
	runtime.GC()
	t0 := time.Now()
	ds, err := genDataset(r.gen, r.subSeed(rep))
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = r.tr
	}
	eng, err := newEngine(ds, tcpFabric, tr)
	if err != nil {
		return nil, err
	}
	if err := eng.startServer(); err != nil {
		eng.close()
		return nil, err
	}
	setup := time.Since(t0).Seconds()
	r.setupS = append(r.setupS, setup)
	leg := &serveLeg{eng: eng, ds: ds, epoch0: eng.epoch()}
	if r.res.Sizes.BaseCells == 0 {
		r.res.Sizes.BaseCells, r.res.Sizes.BaseChunks = ds.baseCells(), ds.baseChunks()
	}

	before := readProc()
	stop, done := make(chan struct{}), make(chan struct{})
	var qerr error
	go func() {
		defer close(done)
		qerr = r.queryLoop(leg, traced, stop)
	}()

	start := time.Now()
	var berr error
	for i := 0; i < batches && berr == nil; i++ {
		due := time.Duration(i) * interval
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		t := opTiming{due: due, started: time.Since(start)}
		var info batchInfo
		if traced {
			r.batches++
			info, berr = eng.stepBatch(i, int32(r.batches))
		} else {
			info, berr = eng.applyBatch(i)
		}
		t.finished = time.Since(start)
		if !r.op(berr) {
			break
		}
		leg.epochs = append(leg.epochs, eng.epoch())
		leg.batchMs = append(leg.batchMs, ms(t.latency()))
		leg.serviceMs = append(leg.serviceMs, ms(t.finished-t.started))
		leg.lateMs = append(leg.lateMs, ms(t.lateness()))
		leg.cells += info.Cells
		if traced {
			r.infos = append(r.infos, info)
			p, err := eng.probeBatch(i)
			if err != nil {
				berr = err
				break
			}
			r.probes = append(r.probes, p)
		}
	}
	// The leg lasts one more interval after its last batch is due, and
	// until both query classes have answered however slow the machine is:
	// the cold class comes round every fifth query.
	if wait := time.Duration(batches)*interval - time.Since(start); wait > 0 && berr == nil {
		time.Sleep(wait)
	}
waitAnswers:
	for leg.answered.Load() < 10 && berr == nil {
		select {
		case <-done: // the client failed; answered will not grow again
			break waitAnswers
		case <-time.After(time.Millisecond):
		}
	}
	leg.wall = time.Since(start)
	close(stop)
	<-done
	// The client's operations are booked here, on the driver's goroutine.
	r.res.Attempted += len(leg.qAll)
	if qerr != nil {
		r.op(qerr)
		if berr == nil {
			berr = qerr
		}
	}
	if berr != nil {
		eng.close()
		return nil, berr
	}
	if !traced {
		r.proc = r.proc.add(readProc().sub(before))
		r.procBatches += batches
	}
	leg.info = eng.serveInfo()
	r.res.Sizes.Queries += len(leg.qAll)
	busy := sum(leg.serviceMs) / 1000
	r.repDone(repStat{
		Seed: r.subSeed(rep), Traced: traced, Batches: batches, SetupS: setup, WallS: leg.wall.Seconds(),
		CellsPerS: ratio(float64(leg.cells), busy), BatchMsP50: median(leg.batchMs),
	}, leg.cells)
	return leg, nil
}

// queryLoop is the closed-loop client: the deterministic mix, one query
// after the other, until stop closes. In a traced leg every eighth query is
// followed, outside its span, by the paired in-process answer and the
// read-path probes.
func (r *run) queryLoop(leg *serveLeg, traced bool, stop <-chan struct{}) error {
	eng := leg.eng
	seen := make(map[[2]uint64]bool)
	for q := 0; ; q++ {
		select {
		case <-stop:
			return nil
		default:
		}
		sh, err := eng.mixShape(q)
		if err != nil {
			return err
		}
		var id int32
		if traced {
			id = r.tr.begin(int32(q+1)|queryBit, 0, "serve", "client_query")
		}
		t0 := time.Now()
		ans, err := eng.queryWire(sh)
		d := time.Since(t0)
		if traced {
			r.tr.end(id)
		}
		if err != nil {
			return err
		}
		leg.qAll = append(leg.qAll, ms(d))
		class := uint64(0)
		if sh.cold {
			class = 1
			leg.qCold = append(leg.qCold, ms(d))
		} else {
			leg.qRepeat = append(leg.qRepeat, ms(d))
		}
		if ans.UseView {
			leg.useView++
		}
		if key := [2]uint64{ans.Epoch, class}; !seen[key] {
			seen[key] = true
			leg.recorded = append(leg.recorded, recorded{q: q, epoch: ans.Epoch, fp: ans.fingerprint()})
		}
		leg.answered.Add(1)
		if traced && q%8 == 0 {
			if err := r.queryProbes(leg, sh, ans, d); err != nil {
				return err
			}
		}
	}
}

// queryProbes replays the layers under one query, each call on its own.
func (r *run) queryProbes(leg *serveLeg, sh queryShape, wire answer, wireD time.Duration) error {
	eng := leg.eng
	leg.replyKB = append(leg.replyKB, float64(wire.payloadBytes())/1024)
	t0 := time.Now()
	in, err := eng.queryInProc(sh)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	if in.Epoch == wire.Epoch {
		// Paired only when no batch published in between: same shape, same
		// epoch, so the difference is encode + wire + decode.
		leg.wireMs = append(leg.wireMs, ms(wireD-d))
		if sh.cold {
			leg.inprocCold = append(leg.inprocCold, ms(d))
		} else {
			leg.inprocRep = append(leg.inprocRep, ms(d))
		}
	}
	for _, p := range []struct {
		metric string
		scale  func(time.Duration) float64
		call   func() error
	}{
		{"query.decide_ms_p50", ms, func() error { return eng.decide(sh) }},
		{"cluster.epoch_pin_us_p50", us, eng.pinEpoch},
		{"cluster.gather_view_ms_p50", ms, eng.gatherView},
		{"shape.delta_us_p50", us, func() error { return eng.deltaShape(sh) }},
	} {
		t := time.Now()
		if err := p.call(); err != nil {
			return err
		}
		r.layerSample(p.metric, p.scale(time.Since(t)))
	}
	return nil
}

// audit replays the leg's batch prefix on an independent local replica and
// checks every recorded answer against the cold complete join at its epoch.
// It returns the replica, advanced to the final state.
func (r *run) audit(leg *serveLeg) (*engine, error) {
	oracle, err := newEngine(leg.ds, localFabric, nil)
	if err != nil {
		return nil, err
	}
	byEpoch := make(map[uint64][]recorded)
	for _, rec := range leg.recorded {
		byEpoch[rec.epoch] = append(byEpoch[rec.epoch], rec)
	}
	checked, bad := 0, 0
	verify := func(epoch uint64) error {
		for _, rec := range byEpoch[epoch] {
			sh, err := oracle.mixShape(rec.q)
			if err != nil {
				return err
			}
			want, err := oracle.oracleAnswer(sh)
			if err != nil {
				return err
			}
			checked++
			if want != rec.fp {
				bad++
			}
		}
		delete(byEpoch, epoch)
		return nil
	}
	err = verify(leg.epoch0)
	for i := 0; i < len(leg.epochs) && err == nil; i++ {
		if _, err = oracle.applyBatch(i); err == nil {
			err = verify(leg.epochs[i])
		}
	}
	if err != nil {
		oracle.close()
		return nil, err
	}
	r.check("answers-equal-oracle", bad == 0 && len(byEpoch) == 0,
		"%d recorded answers (first of each class at each epoch) against the cold complete join on a local replica: %d differ, %d at an epoch no batch published", checked, bad, len(byEpoch))
	r.res.Attempted += checked
	r.res.Failed += bad
	return oracle, nil
}

// legEpilogue checks a finished leg outside its timed region: the answers
// against the oracle, the served state against the replica and against a
// from-scratch evaluation. It returns the replica and both states.
func (r *run) legEpilogue(leg *serveLeg, final bool) (oracle *engine, got *state, err error) {
	if oracle, err = r.audit(leg); err != nil {
		return nil, nil, err
	}
	want, err := oracle.state()
	if err == nil {
		got, err = leg.eng.state()
	}
	if err != nil {
		oracle.close()
		return nil, nil, err
	}
	r.check("served-state-equals-replica", got.equal(want), "state gathered over TCP against the local replica after %d batches", len(leg.epochs))
	if final {
		if err := r.checkView(got); err != nil {
			oracle.close()
			return nil, nil, err
		}
	}
	return oracle, got, nil
}

func (r *run) pool(leg *serveLeg) {
	r.batchMs = append(r.batchMs, leg.batchMs...)
	r.serviceMs = append(r.serviceMs, leg.serviceMs...)
	r.latenessMs = append(r.latenessMs, leg.lateMs...)
	// Batches are paced, so the ingest rate is cells over the time spent
	// ingesting them, not over the schedule's length.
	r.cells += leg.cells
	r.ingestWallS += sum(leg.serviceMs) / 1000
	r.qAll = append(r.qAll, leg.qAll...)
	r.qRepeat = append(r.qRepeat, leg.qRepeat...)
	r.qCold = append(r.qCold, leg.qCold...)
	r.qWallS += leg.wall.Seconds()
}

func (r *run) runServe() error {
	if r.opt.trace {
		return r.runServeTraced()
	}
	var used time.Duration
	for rep := 0; used < r.limit(); rep++ {
		leg, err := r.serveOnce(rep, false)
		if err != nil {
			return err
		}
		used += leg.wall
		r.pool(leg)
		final := used >= r.limit()
		if final {
			r.peakRSS = peakRSSMiB()
		}
		oracle, got, err := r.legEpilogue(leg, final)
		leg.eng.close()
		if err != nil {
			return err
		}
		// The durable path of this workload is measured on the replica: a
		// TCP fabric has no local stores to journal.
		err = r.checkpointProbe(oracle, got)
		oracle.close()
		if err != nil {
			return err
		}
	}
	return nil
}

// runServeTraced: an untraced reference leg, the same seed behind the span
// fabric with the stepped driver, then more traced legs while the time
// lasts.
func (r *run) runServeTraced() error {
	ref, err := r.serveOnce(0, false)
	if err != nil {
		return err
	}
	refState, err := ref.eng.state()
	ref.eng.close()
	if err != nil {
		return err
	}
	r.procLayer()

	deadline := time.Now().Add(r.limit())
	var si serveInfo
	var fab fabricInfo
	var useView, epochs int
	var replyKB, wireMs, inRep, inCold []float64
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		leg, err := r.serveOnce(rep, true)
		if err != nil {
			return err
		}
		r.pool(leg)
		fi, err := leg.eng.fabricInfo()
		if err != nil {
			leg.eng.close()
			return err
		}
		oracle, got, err := r.legEpilogue(leg, rep == 0)
		leg.eng.close()
		if err != nil {
			return err
		}
		oracle.close()
		if rep == 0 {
			r.check("traced-state-equals-untraced", got.equal(refState), "traced leg against the untraced leg, %d batches each, seed %d", len(leg.epochs), r.subSeed(0))
			r.set("trace_overhead_pct", 100*(median(leg.serviceMs)-median(ref.serviceMs))/median(ref.serviceMs))
			r.set("storage.resident_mb_end", float64(fi.Bytes)/(1<<20))
			r.set("storage.chunks_end", float64(fi.Chunks))
		}
		fab = fab.add(fi)
		si = si.add(leg.info)
		useView += leg.useView
		epochs += int(leg.info.Epoch - leg.epoch0)
		replyKB = append(replyKB, leg.replyKB...)
		wireMs = append(wireMs, leg.wireMs...)
		inRep = append(inRep, leg.inprocRep...)
		inCold = append(inCold, leg.inprocCold...)
	}
	r.check("stepped-driver-counts", len(r.infos) == len(r.batchMs), "%d traced batches", len(r.infos))

	nb := float64(len(r.batchMs))
	r.set("transport.requests_per_batch", float64(fab.totalRequests())/nb)
	r.set("transport.bytes_out_per_batch", float64(fab.BytesOut)/nb)
	r.set("transport.bytes_in_per_batch", float64(fab.BytesIn)/nb)
	r.set("transport.dedup_hits_per_batch", float64(fab.DedupHits)/nb)
	r.set("transport.retries", float64(fab.Retries))
	r.set("maintain.batch_service_ms_p50", median(r.serviceMs))
	r.set("cluster.epochs_published", float64(epochs))
	r.set("cluster.retained_mb_peak", float64(si.RetainedBytes)/(1<<20))
	r.set("cluster.readcache_hit_ratio", ratio(float64(si.ReadHits), float64(si.ReadHits+si.ReadMisses)))
	r.set("cluster.viewcache_hit_ratio", ratio(float64(si.ViewHits), float64(si.ViewHits+si.ViewMisses)))
	r.set("cluster.viewcache_invalidations", float64(si.ViewInvalidations))
	r.set("query.memo_hit_ratio", ratio(float64(si.MemoHits), float64(si.MemoHits+si.MemoMisses)))
	r.set("query.solve_skips", float64(si.SolveSkips))
	r.set("query.use_view_share", ratio(float64(useView), float64(len(r.qAll))))
	r.set("query.answer_inproc_repeat_ms_p50", median(inRep))
	r.set("query.answer_inproc_cold_ms_p50", median(inCold))
	r.set("serve.wire_ms_p50", median(wireMs))
	r.set("serve.reply_kb_p50", median(replyKB))
	r.set("serve.admitted", float64(si.Admitted))
	r.set("serve.rejected", float64(si.Rejected))
	return nil
}

// add sums the counters of two legs; the retained-bytes gauge keeps its
// peak.
func (s serveInfo) add(o serveInfo) serveInfo {
	out := serveInfo{
		RetainedBytes: max(s.RetainedBytes, o.RetainedBytes),
		ReadHits:      s.ReadHits + o.ReadHits, ReadMisses: s.ReadMisses + o.ReadMisses,
		Admitted: s.Admitted + o.Admitted, Rejected: s.Rejected + o.Rejected,
		ViewHits: s.ViewHits + o.ViewHits, ViewMisses: s.ViewMisses + o.ViewMisses,
		ViewInvalidations: s.ViewInvalidations + o.ViewInvalidations,
		MemoHits:          s.MemoHits + o.MemoHits, MemoMisses: s.MemoMisses + o.MemoMisses,
		SolveSkips: s.SolveSkips + o.SolveSkips,
	}
	return out
}

func (f fabricInfo) add(o fabricInfo) fabricInfo {
	out := fabricInfo{
		Requests: make(map[string]int64), Chunks: f.Chunks + o.Chunks, Bytes: f.Bytes + o.Bytes,
		BytesOut: f.BytesOut + o.BytesOut, BytesIn: f.BytesIn + o.BytesIn,
		Retries: f.Retries + o.Retries, DedupHits: f.DedupHits + o.DedupHits,
	}
	for _, m := range []map[string]int64{f.Requests, o.Requests} {
		for k, v := range m {
			out.Requests[k] += v
		}
	}
	return out
}
