package bench

import (
	"fmt"
	"io"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/engine"
	"github.com/arrayview/arrayview/internal/workload"
)

// WireVariantResult is one shipping configuration's traffic over the full
// maintenance sequence.
type WireVariantResult struct {
	// Variant names the configuration: "naive" (no wire protocol),
	// "dedup" (content-addressed offers and pipelined batches, delta
	// patches refused), "delta" (the full wire layer), "tcp" (loopback
	// daemons, uncompressed), "tcp-compress" (loopback daemons with
	// per-frame deflate).
	Variant string
	// Baseline is the variant this one's Saved is computed against:
	// "naive" for the in-process variants, "tcp" for "tcp-compress". The
	// two families are not comparable to each other — local byte counters
	// are chunk payload sizes, TCP counters are raw socket bytes.
	Baseline string
	// Bytes is the sequence's total data-plane traffic, summed over nodes
	// and both directions.
	Bytes int64
	// Saved is the fractional byte reduction against Baseline (0 for the
	// baselines themselves).
	Saved float64
	// TransferBytes is the traffic of the per-batch replication step alone
	// — the Phase-1-style repeated chunk ships the wire layer targets.
	// Join reads and staging merges, identical across variants, are
	// excluded here, so this is where the dedup and delta savings show
	// undiluted.
	TransferBytes int64
	// SavedTransfers is the fractional TransferBytes reduction against
	// Baseline.
	SavedTransfers float64

	DedupHits          int64
	BytesSavedDedup    int64
	DeltaShips         int64
	BytesSavedDelta    int64
	BytesSavedCompress int64
	RoundTripsSaved    int64
}

// WireRepeatProbe checks the repeat-ship contract: re-transferring chunks
// whose content the destination has already seen (its resident copy was
// evicted, not changed) must move only the offer handshake — zero payload
// bytes — with every chunk adopted from the destination's content cache.
type WireRepeatProbe struct {
	Chunks     int
	BytesMoved int64
	DedupHits  int64
	// HandshakeOnly is true when no payload byte moved and every probed
	// chunk was a dedup hit.
	HandshakeOnly bool
}

// WireResult is the wire-efficiency experiment for one (dataset, mode)
// panel: the same seeded maintenance sequence shipped under each variant,
// plus the repeat-ship probe run on the full-featured in-process cluster.
type WireResult struct {
	Dataset  Dataset
	Mode     workload.BatchMode
	Strategy string
	Variants []WireVariantResult
	Repeat   WireRepeatProbe
}

// Wire runs the wire-efficiency experiment on one panel: the identical
// seeded batch sequence — with the chaos suite's per-batch re-replication,
// the workload where repeated ships dominate — executed under each
// shipping variant, reporting bytes on the wire and the savings
// attribution for each. The in-process variants compare payload bytes;
// the loopback-TCP pair compares raw socket bytes with and without
// per-frame compression.
func Wire(w io.Writer, spec Spec) (*WireResult, error) {
	const strategy = "reassign"
	res := &WireResult{Dataset: spec.Dataset, Mode: spec.Mode, Strategy: strategy}

	fmt.Fprintf(w, "Wire shipping: %s/%s, %d nodes, strategy %s\n", spec.Dataset, spec.Mode, spec.Nodes, strategy)

	// The in-process variants compare payload bytes; the loopback-TCP pair
	// (identical wire layer, compression off vs on) compares raw socket
	// bytes. Each family has its own baseline.
	variants := []struct {
		name, baseline string
		dress          func(*engine.Config)
	}{
		// Wire protocol stripped: every ship is a full body.
		{"naive", "naive", func(c *engine.Config) { c.Fabric = plainFabric{localFabric(spec.Nodes)} }},
		// Offers and pipelined batches, delta patches refused.
		{"dedup", "naive", func(c *engine.Config) { c.Fabric = dedupOnlyFabric{localFabric(spec.Nodes)} }},
		// The full wire layer: the default in-process fabric.
		{"delta", "naive", func(*engine.Config) {}},
		{"tcp", "tcp", func(c *engine.Config) { c.Distributed = true }},
		{"tcp-compress", "tcp", func(c *engine.Config) { c.Distributed, c.Compress = true, true }},
	}
	baselines := make(map[string]WireVariantResult)
	for _, v := range variants {
		// The repeat-ship probe runs on the full-featured in-process cluster.
		var probe *WireRepeatProbe
		if v.name == "delta" {
			probe = &res.Repeat
		}
		r, err := runWireVariant(spec, strategy, v.dress, probe)
		if err != nil {
			return nil, fmt.Errorf("bench: wire %s: %w", v.name, err)
		}
		r.Variant, r.Baseline = v.name, v.baseline
		if v.name == v.baseline {
			baselines[v.name] = r
		} else {
			saveVs(&r, baselines[v.baseline])
		}
		res.Variants = append(res.Variants, r)
	}

	for _, v := range res.Variants {
		fmt.Fprintf(w, "  %-14s %12dB (saved %5.1f%%)  transfers %10dB (saved %5.1f%%) vs %-6s dedup=%d(%dB) delta=%d(%dB) compress=%dB rt-saved=%d\n",
			v.Variant, v.Bytes, v.Saved*100, v.TransferBytes, v.SavedTransfers*100, v.Baseline,
			v.DedupHits, v.BytesSavedDedup, v.DeltaShips, v.BytesSavedDelta,
			v.BytesSavedCompress, v.RoundTripsSaved)
	}
	probeState := "handshake-only"
	if !res.Repeat.HandshakeOnly {
		probeState = "FAIL (payload moved)"
	}
	fmt.Fprintf(w, "  repeat-ship probe: %d chunks, %dB moved, %d dedup hits — %s\n",
		res.Repeat.Chunks, res.Repeat.BytesMoved, res.Repeat.DedupHits, probeState)
	return res, nil
}

// plainFabric strips every optional capability from the inner fabric, so
// type assertions for WireFabric (and JoinFabric) fail and the cluster
// ships everything the pre-wire way.
type plainFabric struct {
	cluster.Fabric
}

// dedupOnlyFabric passes the wire protocol through except for Patch, which
// always refuses: callers fall back to full puts, isolating dedup and
// batching from delta shipping.
type dedupOnlyFabric struct {
	*cluster.LocalFabric
}

// Patch implements cluster.WireFabric by refusing every delta.
func (f dedupOnlyFabric) Patch(node int, arrayName string, key array.ChunkKey, baseHash uint64, delta []byte, fullSize int64) (bool, error) {
	return false, nil
}

var _ cluster.WireFabric = dedupOnlyFabric{}

// runWireVariant opens the spec's system on the fabric dress chooses, drives
// the shared workload through it and returns the summed traffic; with probe
// non-nil it then runs the repeat-ship probe on the finished cluster.
func runWireVariant(spec Spec, strategy string, dress func(*engine.Config), probe *WireRepeatProbe) (WireVariantResult, error) {
	data, err := spec.Generate()
	if err != nil {
		return WireVariantResult{}, err
	}
	h, err := spec.Open(data, func(c *engine.Config) {
		c.Strategy = strategy
		dress(c)
	})
	if err != nil {
		return WireVariantResult{}, err
	}
	defer h.Close()
	out, err := runWireSequence(h, data.Batches)
	if err == nil && probe != nil {
		*probe = repeatShipProbe(h.Cluster(), h.Def().Alpha.Name)
	}
	return out, err
}

// runWireSequence is the shared workload: per batch re-replicate base and
// view (as the chaos harness does — cleanup scrubs scratch replicas, so
// every batch re-ships them) and maintain. TransferBytes is the bytes moved
// by the replication steps alone, measured by snapshotting the fabric
// counters around them.
func runWireSequence(h *engine.Handle, batches []*array.Array) (WireVariantResult, error) {
	cl, def := h.Cluster(), h.Def()
	var transferBytes int64
	for i, batch := range batches {
		before, err := sumWire(cl)
		if err != nil {
			return before, err
		}
		replicateOnce(cl, def.Alpha.Name)
		replicateOnce(cl, def.Name)
		after, err := sumWire(cl)
		if err != nil {
			return after, err
		}
		transferBytes += after.Bytes - before.Bytes
		if _, err := h.Maintainer().ApplyBatch(batch); err != nil {
			return after, fmt.Errorf("batch %d: %w", i, err)
		}
	}
	out, err := sumWire(cl)
	out.TransferBytes = transferBytes
	return out, err
}

// sumWire totals the per-node fabric counters into one variant row.
func sumWire(cl *cluster.Cluster) (WireVariantResult, error) {
	var out WireVariantResult
	for node := 0; node < cl.NumNodes(); node++ {
		st, err := cl.Fabric().Stats(node)
		if err != nil {
			return out, err
		}
		out.Bytes += st.Net.BytesIn + st.Net.BytesOut
		out.DedupHits += st.Net.DedupHits
		out.BytesSavedDedup += st.Net.BytesSavedDedup
		out.DeltaShips += st.Net.DeltaShips
		out.BytesSavedDelta += st.Net.BytesSavedDelta
		out.BytesSavedCompress += st.Net.BytesSavedCompress
		out.RoundTripsSaved += st.Net.RoundTripsSaved
	}
	return out, nil
}

// saveVs fills a variant's fractional savings against the baseline's byte
// counts.
func saveVs(v *WireVariantResult, baseline WireVariantResult) {
	if baseline.Bytes > 0 {
		v.Saved = 1 - float64(v.Bytes)/float64(baseline.Bytes)
	}
	if baseline.TransferBytes > 0 {
		v.SavedTransfers = 1 - float64(v.TransferBytes)/float64(baseline.TransferBytes)
	}
}

// repeatShipProbe exercises the repeat-ship contract on a cluster that has
// finished its sequence: every base chunk is replicated out, the replica
// is evicted at the destination (sidelining its encoding in the content
// cache), and the same transfer runs again. The second round must move
// only hash handshakes: zero payload bytes, one dedup hit per chunk.
func repeatShipProbe(cl *cluster.Cluster, name string) WireRepeatProbe {
	var probe WireRepeatProbe
	if cl == nil || name == "" {
		return probe
	}
	n := cl.NumNodes()
	if n < 2 {
		return probe
	}
	cat := cl.Catalog()
	type shipped struct {
		key  array.ChunkKey
		home int
		dst  int
	}
	var ships []shipped
	for _, key := range cat.Keys(name) {
		home, ok := cat.Home(name, key)
		if !ok || home < 0 {
			continue
		}
		dst := (home + 1) % n
		// First round: make the replica resident, and make sure the
		// content hash is known (a transfer that finds the chunk already
		// resident records nothing, so refresh it from current content).
		if err := cl.Transfer(nil, name, key, home, dst); err != nil {
			continue
		}
		if _, _, known := cat.ChunkHash(name, key); !known {
			ch, _, err := cl.ReadReplica(name, key, home)
			if err != nil {
				continue
			}
			_ = cat.SetChunkHash(name, key, ch.ContentHash(), ch.EncodedSize())
		}
		ships = append(ships, shipped{key, home, dst})
	}
	// Evict the destination copies; Store.Delete sidelines the encoding in
	// the content cache, which is exactly what the second round should hit.
	for _, s := range ships {
		_, _ = cl.DeleteAt(s.dst, name, s.key)
	}
	before, _ := sumWire(cl)
	for _, s := range ships {
		_ = cl.Transfer(nil, name, s.key, s.home, s.dst)
	}
	after, _ := sumWire(cl)
	probe.Chunks = len(ships)
	probe.BytesMoved = after.Bytes - before.Bytes
	probe.DedupHits = after.DedupHits - before.DedupHits
	probe.HandshakeOnly = len(ships) > 0 && probe.BytesMoved == 0 && probe.DedupHits >= int64(len(ships))
	return probe
}
