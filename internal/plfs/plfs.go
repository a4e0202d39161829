// Package plfs simulates the Parallel Log-structured File System (Bent et
// al., SC'09) as layered over Lustre: an N-to-1 shared-file write becomes N
// per-rank write streams, each appending to a private data log plus an
// index log inside a container directory hashed into subdirectories. Every
// data log is created with the system-default Lustre layout (two 1 MB
// stripes on lscratchc), which is precisely why PLFS self-contends at
// scale: n ranks behave like n jobs with R = 2 (Equations 5-6 of the
// paper).
package plfs

import (
	"fmt"

	"pfsim/internal/cluster"
	"pfsim/internal/core"
	"pfsim/internal/flow"
	"pfsim/internal/lustre"
	"pfsim/internal/sim"
)

// Container is one PLFS file: a backend directory tree holding per-rank
// data and index logs.
type Container struct {
	sys     *lustre.System
	name    string
	subdirs int

	createRes *sim.Resource
	ready     *sim.Signal

	// A rank's open passes four stages, each a wait that completes in the
	// order it began: the ready signal wakes its waiters in park order, and
	// the create lock and the MDS are FIFO servers of one slot. Each stage
	// queues its opens in call order and resumes them through one method,
	// bound once in NewContainer, that serves the head of its queue.
	awaiting, locking, creatingData, creatingIndex sim.FIFO[opening]

	readyFn         func()
	lockedFn        func()
	dataFn, indexFn func(*lustre.File, error)

	logs  map[int]*RankLog
	order []int

	// shareOf indexes a batch write's shares by OST id, one more than
	// the share's index, 0 for an OST the batch has not touched; every
	// batch write resets the entries it set.
	shareOf []int32
}

// opening is one OpenRankK call in progress: the rank's task, its rank,
// the caller's continuation and, once created, its data log.
type opening struct {
	t    *sim.Task
	rank int
	k    func(error)
	data *lustre.File
}

// NewContainer prepares a container shell for the given backend file
// system. Call CreateMetaK from exactly one rank, then OpenRankK from
// every writing rank.
func NewContainer(sys *lustre.System, name string) *Container {
	c := &Container{
		sys:       sys,
		name:      name,
		subdirs:   sys.Platform().PLFSSubdirs,
		createRes: sys.Engine().NewResource("plfs-create:"+name, 1),
		ready:     sys.Engine().NewSignal("plfs-ready:" + name),
		logs:      make(map[int]*RankLog),
	}
	c.readyFn, c.lockedFn, c.dataFn, c.indexFn = c.onReady, c.onLocked, c.onData, c.onIndex
	return c
}

// Name returns the container name.
func (c *Container) Name() string { return c.name }

// Subdir returns the hashed backend subdirectory for a rank.
func (c *Container) Subdir(rank int) int {
	if rank < 0 {
		rank = -rank
	}
	return rank % c.subdirs
}

// CreateMetaK creates the container skeleton (top-level directory, metadata
// and the hashed subdirectories), unblocks OpenRankK callers, and runs k.
// PLFS creates subdirectories lazily in batches; we charge one metadata
// operation per subdirectory plus one for the container itself, as a
// self-continuing chain of sequential operations.
func (c *Container) CreateMetaK(t *sim.Task, k func()) {
	i := 0
	var step func()
	step = func() {
		if i > c.subdirs {
			c.ready.Fire()
			k()
			return
		}
		i++
		c.sys.MDS().StatK(t, step)
	}
	step()
}

// RankLog is one rank's pair of backend logs.
type RankLog struct {
	c      *Container
	rank   int
	subdir int
	data   *lustre.File
	index  *lustre.File

	writtenMB float64
	records   int
	closed    bool
}

// OpenRankK creates the rank's data and index logs once the container
// skeleton exists, then runs k; on success Log(rank) returns the rank's
// logs. Creates serialize on the
// container's backend-directory lock — the effective cost calibrated by
// Platform.PLFSCreateTime — reproducing the open storm that dominates
// large PLFS runs.
//
// The rank is reserved at entry, before the first wait, so a second open
// of the same rank fails even while the first is still creating its logs.
func (c *Container) OpenRankK(t *sim.Task, rank int, k func(error)) {
	if _, dup := c.logs[rank]; dup {
		k(fmt.Errorf("plfs: rank %d already open in %q", rank, c.name))
		return
	}
	c.logs[rank] = nil // reserved; adoptLog fills it in
	o := opening{t: t, rank: rank, k: k}
	if c.ready.Fired() {
		// Await would run at once, ahead of earlier opens whose wakes are
		// still pending: go straight to the lock.
		c.lock(o)
		return
	}
	c.awaiting.Push(o)
	c.ready.Await(t, c.readyFn)
}

// onReady resumes the oldest open waiting for the container skeleton.
func (c *Container) onReady() { c.lock(c.awaiting.Pop()) }

// lock queues o on the container's backend-directory lock.
func (c *Container) lock(o opening) {
	c.locking.Push(o)
	c.createRes.UseTask(o.t, 2*c.sys.Platform().PLFSCreateTime, c.lockedFn)
}

// onLocked resumes the oldest open holding the lock: it creates the
// rank's data log, hostdir.<subdir>/dropping.data.<rank> in PLFS.
func (c *Container) onLocked() {
	o := c.locking.Pop()
	c.creatingData.Push(o)
	c.sys.MDS().CreateK(o.t, lustre.DefaultSpec(), c.dataFn)
}

// onData receives the oldest pending data log, then creates the rank's
// index log, dropping.index.<rank>. The MDS delivers an error only
// synchronously, within the CreateK call, so an error belongs to the
// open pushed last, never to the head.
func (c *Container) onData(data *lustre.File, err error) {
	if err != nil {
		c.fail(c.creatingData.PopBack(), err)
		return
	}
	o := c.creatingData.Pop()
	o.data = data
	c.creatingIndex.Push(o)
	c.sys.MDS().CreateK(o.t, c.indexSpec(), c.indexFn)
}

// onIndex receives the oldest pending index log and completes its open.
// An error is synchronous, as in onData.
func (c *Container) onIndex(index *lustre.File, err error) {
	if err != nil {
		c.fail(c.creatingIndex.PopBack(), err)
		return
	}
	o := c.creatingIndex.Pop()
	c.adoptLog(o.rank, o.data, index)
	o.k(nil)
}

// fail ends o's open with err and frees its rank.
func (c *Container) fail(o opening, err error) {
	delete(c.logs, o.rank)
	o.k(err)
}

// indexSpec is the single-stripe layout index logs are created with.
func (c *Container) indexSpec() lustre.StripeSpec {
	return lustre.StripeSpec{Count: 1, SizeMB: c.sys.Platform().DefaultStripeSizeMB, OffsetOST: -1}
}

// adoptLog registers a freshly created rank log in the container.
func (c *Container) adoptLog(rank int, data, index *lustre.File) {
	c.logs[rank] = &RankLog{c: c, rank: rank, subdir: c.Subdir(rank), data: data, index: index}
	c.order = append(c.order, rank)
}

// Log returns the rank's logs once OpenRankK has created them, else nil.
func (c *Container) Log(rank int) *RankLog { return c.logs[rank] }

// Data returns the rank's data log file.
func (rl *RankLog) Data() *lustre.File { return rl.data }

// Records returns the number of index records written.
func (rl *RankLog) Records() int { return rl.records }

// WrittenMB returns the volume appended to the data log.
func (rl *RankLog) WrittenMB() float64 { return rl.writtenMB }

// WriteK appends sizeMB from a rank on the given node as transfers of
// transferMB each. The append stream is striped over the data log's
// (default, 2-OST) layout; each stripe stream is rate-capped so the whole
// rank sustains at most Platform.PLFSRankMBs, the calibrated per-rank PLFS
// write path cost. k runs (with any validation error) once the data is on
// the OSTs.
func (rl *RankLog) WriteK(t *sim.Task, node int, sizeMB, transferMB float64, k func(error)) {
	if err := rl.checkWrite(sizeMB, transferMB); err != nil || sizeMB == 0 {
		k(err)
		return
	}
	rl.c.sys.StartWrites(rl.writeReqs(node, sizeMB, transferMB)).Await(t, func() {
		rl.accountWrite(sizeMB, transferMB)
		k(nil)
	})
}

func (rl *RankLog) checkWrite(sizeMB, transferMB float64) error {
	if rl.closed {
		return fmt.Errorf("plfs: write to closed log (rank %d)", rl.rank)
	}
	if sizeMB < 0 || transferMB <= 0 {
		return fmt.Errorf("plfs: bad write size=%v transfer=%v", sizeMB, transferMB)
	}
	return nil
}

// writeReqs builds the per-OST append streams for one rank write.
func (rl *RankLog) writeReqs(node int, sizeMB, transferMB float64) []lustre.WriteReq {
	plat := rl.c.sys.Platform()
	shares := rl.data.Layout.BytesPerOST(sizeMB)
	perStream := plat.PLFSRankMBs / float64(len(shares))
	var reqs []lustre.WriteReq
	for i, mb := range shares {
		if mb <= 0 {
			continue
		}
		ost := rl.c.sys.OST(rl.data.Layout.OSTs[i])
		reqs = append(reqs, lustre.WriteReq{
			Name:    fmt.Sprintf("plfs:%s:r%d:o%d", rl.c.name, rl.rank, ost.ID()),
			SizeMB:  mb,
			OST:     ost,
			Node:    node,
			Class:   cluster.ClassLogAppend,
			FileID:  rl.data.ID,
			RPCMB:   transferMB,
			MaxRate: perStream,
		})
	}
	return reqs
}

// accountWrite records a completed append in the log's telemetry.
func (rl *RankLog) accountWrite(sizeMB, transferMB float64) {
	rl.writtenMB += sizeMB
	rl.records += int(sizeMB / transferMB)
}

// BatchWriteK appends perRankMB to every opened rank log in one collective
// operation. Same-OST log streams are symmetric for uniform writes — equal
// volume, equal rate cap, fair-shared service — so they complete
// simultaneously and can be merged exactly into a single fluid flow per
// OST. This keeps the flow population at O(OSTs) instead of O(ranks),
// which is what makes 4,096-rank PLFS simulations tractable. Per-node NIC
// links are omitted from the merged paths: PLFS rank streams never
// approach NIC capacity (16 ranks × ~47 MB/s ≪ 1.6 GB/s).
//
// k runs (with any validation error) once the slowest OST drains —
// exactly when the slowest rank would finish under per-rank flows.
func (c *Container) BatchWriteK(t *sim.Task, perRankMB, transferMB float64, k func(error)) {
	specs, err := c.batchSpecs(perRankMB, transferMB)
	if err != nil || specs == nil {
		k(err)
		return
	}
	c.sys.Net().StartBatch(specs).Await(t, func() { k(nil) })
}

// batchSpecs merges the per-rank log streams into one flow spec per OST
// and accounts the written volume — BatchWriteK's synchronous body. A nil,
// nil return means nothing to write.
//
// The shares are numbered in the order the ranks first touch their OSTs,
// and the rank streams join their OSTs in rank order, so each OST sums
// its streams' service in that order and each share removes them in it.
// The first pass over the ranks sums the shares; the second joins the
// streams and records each share's ranks' data logs in its own run of
// one pointer-free slab per batch, so a batch allocates per OST, not per
// rank, and the collector has nothing to scan in what it keeps.
func (c *Container) batchSpecs(perRankMB, transferMB float64) ([]flow.FlowSpec, error) {
	if perRankMB < 0 || transferMB <= 0 {
		return nil, fmt.Errorf("plfs: bad batch write size=%v transfer=%v", perRankMB, transferMB)
	}
	if perRankMB == 0 || len(c.order) == 0 {
		return nil, nil
	}
	for _, rank := range c.order {
		if c.logs[rank].closed {
			return nil, fmt.Errorf("plfs: batch write with closed log (rank %d)", rank)
		}
	}
	if c.shareOf == nil {
		c.shareOf = make([]int32, c.sys.NumOSTs())
	}
	plat := c.sys.Platform()
	var shares []ostShare
	streams := 0
	for _, rank := range c.order {
		layout := &c.logs[rank].data.Layout
		perStream := plat.PLFSRankMBs / float64(len(layout.OSTs))
		for i, id := range layout.OSTs {
			mb := layout.BytesOnOST(i, perRankMB)
			if mb <= 0 {
				continue
			}
			j := c.shareOf[id] - 1
			if j < 0 {
				j = int32(len(shares))
				c.shareOf[id] = j + 1
				shares = append(shares, ostShare{ost: c.sys.OST(id)})
			}
			sh := &shares[j]
			sh.totalMB += mb
			sh.maxRate += perStream
			sh.ranks++
			streams++
		}
	}
	slab := make([]int, streams)
	for j := range shares {
		sh := &shares[j]
		sh.files, slab = slab[:0:sh.ranks], slab[sh.ranks:]
	}
	for _, rank := range c.order {
		rl := c.logs[rank]
		layout := &rl.data.Layout
		for i, id := range layout.OSTs {
			if layout.BytesOnOST(i, perRankMB) <= 0 {
				continue
			}
			sh := &shares[c.shareOf[id]-1]
			sh.files = append(sh.files, rl.data.ID)
			sh.effBase = sh.ost.JoinStream(cluster.ClassLogAppend, rl.data.ID, transferMB)
		}
		rl.writtenMB += perRankMB
		rl.records += int(perRankMB / transferMB)
	}
	specs := make([]flow.FlowSpec, len(shares))
	links := make([]*flow.Link, 0, 3*len(shares))
	for j := range shares {
		sh := &shares[j]
		c.shareOf[sh.ost.ID()] = 0
		from := len(links)
		links = append(links, c.sys.Backbone(), c.sys.OSSLink(sh.ost.OSS()), sh.ost.Link())
		specs[j] = flow.FlowSpec{
			Name:    fmt.Sprintf("plfs-batch:%s:o%d", c.name, sh.ost.ID()),
			SizeMB:  sh.totalMB,
			MaxRate: sh.maxRate,
			OnDone:  sh,
			Path:    links[from:len(links):len(links)],
		}
	}
	return specs, nil
}

// ostShare is one OST's merged flow in a batch write: the summed volume
// and rate cap of the ranks' streams it stands for, and what it needs to
// deregister those streams, in rank order, when the flow drains.
type ostShare struct {
	ost     *lustre.OST
	ranks   int // the ranks with a stream on the OST
	totalMB float64
	maxRate float64
	effBase float64 // every rank stream's: one class, one RPC size
	files   []int   // the ranks' data logs, in rank order
}

// FlowDone implements flow.DoneHook: the merged flow has drained.
func (sh *ostShare) FlowDone() {
	for _, f := range sh.files {
		sh.ost.LeaveStream(cluster.ClassLogAppend, f, sh.effBase)
	}
}

// ReadK plays the data back: an index merge (in-memory, charged per
// record) followed by sequential reads from the data log's OSTs, then k.
// The paper's experiments are write-only; ReadK exists for API
// completeness and the read-back examples.
func (rl *RankLog) ReadK(t *sim.Task, node int, sizeMB float64, k func(error)) {
	if sizeMB <= 0 {
		k(nil)
		return
	}
	t.Sleep(float64(rl.records)*1e-6, func() {
		rl.c.sys.StartWrites(rl.readReqs(node, sizeMB)).Await(t, func() { k(nil) })
	})
}

// readReqs builds the per-OST sequential read streams for a log replay.
func (rl *RankLog) readReqs(node int, sizeMB float64) []lustre.WriteReq {
	shares := rl.data.Layout.BytesPerOST(sizeMB)
	var reqs []lustre.WriteReq
	for i, mb := range shares {
		if mb <= 0 {
			continue
		}
		ost := rl.c.sys.OST(rl.data.Layout.OSTs[i])
		reqs = append(reqs, lustre.WriteReq{
			Name:   fmt.Sprintf("plfs-read:%s:r%d:o%d", rl.c.name, rl.rank, ost.ID()),
			SizeMB: mb,
			OST:    ost,
			Node:   node,
			Class:  cluster.ClassSequential,
			FileID: rl.data.ID,
			RPCMB:  rl.data.Layout.SizeMB,
		})
	}
	return reqs
}

// CloseK flushes the rank's index log (one metadata operation); k runs
// after the flush (immediately for an already-closed log).
func (rl *RankLog) CloseK(t *sim.Task, k func()) {
	if rl.closed {
		k()
		return
	}
	rl.closed = true
	rl.c.sys.MDS().StatK(t, k)
}

// Ranks returns the number of opened rank logs.
func (c *Container) Ranks() int { return len(c.order) }

// IndexRecords sums index records across ranks.
func (c *Container) IndexRecords() int {
	total := 0
	for _, rank := range c.order {
		total += c.logs[rank].records
	}
	return total
}

// Assignment exposes the realised backend layout as a core.Assignment so
// the paper's collision statistics (Tables VIII and IX) can be computed
// from an actual simulated run: entry j holds the OSTs of the j-th opened
// rank's data log.
func (c *Container) Assignment() core.Assignment {
	a := core.Assignment{
		Dtotal:  c.sys.NumOSTs(),
		JobOSTs: make([][]int, 0, len(c.order)),
	}
	for _, rank := range c.order {
		layout := c.logs[rank].data.Layout
		osts := make([]int, len(layout.OSTs))
		copy(osts, layout.OSTs)
		a.JobOSTs = append(a.JobOSTs, osts)
	}
	return a
}
