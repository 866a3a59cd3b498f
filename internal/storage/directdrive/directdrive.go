// Package directdrive models Azure Direct Drive, Microsoft's
// next-generation block storage architecture (paper §3.1.3, Fig 6), and
// converts SPC block-I/O traces into GOAL schedules of the storage
// system's network traffic.
//
// The model implements the five service components of the paper's Fig 6
// plus the client hosts:
//
//	VDC  — virtual disk clients (the application hosts issuing I/O)
//	CCS  — Change Coordinator Services: map a block to its BSS
//	BSS  — Block Storage Services: hold the data, replicate writes
//	MDS  — Metadata Service: receives change notifications on writes
//	GS   — Gateway Service: terminates client sessions
//	SLB  — Software Load Balancer: fronts the gateway
//
// Choreography (paper Fig 6B): a read contacts a CCS to locate the block,
// then fetches it from the owning BSS. A write obtains a lease from the
// CCS, streams data to the primary BSS which replicates to its secondary
// replicas before acknowledging; the CCS notifies the MDS asynchronously.
// Session setup (once per host) traverses SLB -> GS. Direct Drive is
// proprietary; like the paper, the model follows Microsoft's public
// description, and every assumption is a configurable parameter.
//
// Generate builds the schedule on goal.Builder's counted, in-order path
// (goal.Builder states the contract). A command's choreography is a fixed
// number of ops and edges per component, so one pass over the trace that
// only routes commands counts every rank's ops and edges exactly, and
// every Requires call follows the add of the op it names, so every table
// is written in its final form: a rank's arrays are allocated once, at
// their final size, and Build hands them over.
package directdrive

import (
	"fmt"

	"atlahs/internal/goal"
	"atlahs/internal/trace/spc"
)

// Config sizes the storage cluster and its service costs.
type Config struct {
	Hosts    int // VDC client hosts
	CCS      int // change coordinator instances
	BSS      int // block storage servers
	Replicas int // total copies of each write (primary + secondaries)

	// Service times in nanoseconds.
	CCSLookupNs    int64 // CCS map lookup
	BSSReadNs      int64 // BSS media read
	BSSWriteNs     int64 // BSS media write
	HostThinkNs    int64 // host-side post-completion processing
	GSSessionNs    int64 // gateway session establishment
	MDSUpdateNs    int64 // metadata ingestion per notification
	CtrlBytes      int64 // control message size (requests, acks, leases)
	StreamsPerHost int   // concurrent I/O streams per host (ASU fan-out)
}

func (c Config) withDefaults() Config {
	if c.Hosts <= 0 {
		c.Hosts = 4
	}
	if c.CCS <= 0 {
		c.CCS = 2
	}
	if c.BSS <= 0 {
		c.BSS = 8
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Replicas > c.BSS {
		c.Replicas = c.BSS
	}
	if c.CCSLookupNs == 0 {
		c.CCSLookupNs = 1500
	}
	if c.BSSReadNs == 0 {
		c.BSSReadNs = 8000
	}
	if c.BSSWriteNs == 0 {
		c.BSSWriteNs = 12000
	}
	if c.HostThinkNs == 0 {
		c.HostThinkNs = 500
	}
	if c.GSSessionNs == 0 {
		c.GSSessionNs = 3000
	}
	if c.MDSUpdateNs == 0 {
		c.MDSUpdateNs = 1000
	}
	if c.CtrlBytes == 0 {
		c.CtrlBytes = 512
	}
	if c.StreamsPerHost <= 0 {
		c.StreamsPerHost = 8
	}
	return c
}

// checkSize bounds what Generate allocates before it has read a single I/O
// command — one rank per component, one chain head per (host, stream) — by
// the rank limit of textual GOAL. A Config can arrive in a wire spec.
func (c Config) checkSize() error {
	for _, n := range []int{c.Hosts, c.CCS, c.BSS, c.StreamsPerHost} {
		if n > goal.MaxTextRanks {
			return fmt.Errorf("directdrive: component count %d exceeds the limit %d", n, goal.MaxTextRanks)
		}
	}
	if ranks := NewLayout(c).NumRanks(); ranks > goal.MaxTextRanks {
		return fmt.Errorf("directdrive: %d ranks exceed the limit %d", ranks, goal.MaxTextRanks)
	}
	if n := c.Hosts * c.StreamsPerHost; n > goal.MaxTextRanks {
		return fmt.Errorf("directdrive: %d host streams exceed the limit %d", n, goal.MaxTextRanks)
	}
	return nil
}

// Layout maps Direct Drive components to GOAL ranks (= cluster nodes).
type Layout struct {
	Hosts    int
	CCS      int
	BSS      int
	hostBase int
	ccsBase  int
	bssBase  int
	mds      int
	gs       int
	slb      int
}

// NewLayout computes the rank layout for a configuration: hosts first,
// then CCS, BSS, and the three singleton services.
func NewLayout(cfg Config) Layout {
	cfg = cfg.withDefaults()
	l := Layout{Hosts: cfg.Hosts, CCS: cfg.CCS, BSS: cfg.BSS}
	l.hostBase = 0
	l.ccsBase = cfg.Hosts
	l.bssBase = l.ccsBase + cfg.CCS
	l.mds = l.bssBase + cfg.BSS
	l.gs = l.mds + 1
	l.slb = l.gs + 1
	return l
}

// NumRanks returns the total rank count of the layout.
func (l Layout) NumRanks() int { return l.slb + 1 }

// Host returns the rank of host h.
func (l Layout) Host(h int) int { return l.hostBase + h }

// CCSRank returns the rank of CCS instance i.
func (l Layout) CCSRank(i int) int { return l.ccsBase + i }

// BSSRank returns the rank of BSS instance i.
func (l Layout) BSSRank(i int) int { return l.bssBase + i }

// MDS returns the metadata service rank.
func (l Layout) MDS() int { return l.mds }

// GS returns the gateway service rank.
func (l Layout) GS() int { return l.gs }

// SLB returns the load balancer rank.
func (l Layout) SLB() int { return l.slb }

// Generate converts an SPC trace into the GOAL schedule of the resulting
// Direct Drive network traffic. I/O commands are distributed to hosts by
// ASU; commands of the same (host, stream) serialise with their traced
// inter-arrival gaps as calc vertices, while different streams proceed
// concurrently (storage queue depth).
func Generate(tr *spc.Trace, cfg Config) (*goal.Schedule, *Layout, error) {
	if err := tr.Validate(); err != nil {
		return nil, nil, err
	}
	cfg = cfg.withDefaults()
	if err := cfg.checkSize(); err != nil {
		return nil, nil, err
	}
	l := NewLayout(cfg)
	b := goal.NewBuilder(l.NumRanks())
	ops, edges := count(tr, cfg, l)
	for r := range ops {
		b.Rank(r).Grow(ops[r], edges[r], 0)
	}

	// per-host session setup through SLB and GS (once per host)
	sessionDone := make([]goal.OpID, cfg.Hosts)
	var slbChain, gsChain goal.OpID = -1, -1
	slb := b.Rank(l.SLB())
	gs := b.Rank(l.GS())
	for h := 0; h < cfg.Hosts; h++ {
		host := b.Rank(l.Host(h))
		tag := sessTag(h)
		syn := host.Send(cfg.CtrlBytes, l.SLB(), tag)
		// SLB forwards to the gateway
		srecv := slb.Recv(cfg.CtrlBytes, l.Host(h), tag)
		if slbChain >= 0 {
			slb.Requires(srecv, slbChain)
		}
		fwd := slb.Send(cfg.CtrlBytes, l.GS(), tag)
		slb.Requires(fwd, srecv)
		slbChain = fwd
		// gateway sets up the session and answers the host directly
		grecv := gs.Recv(cfg.CtrlBytes, l.SLB(), tag)
		if gsChain >= 0 {
			gs.Requires(grecv, gsChain)
		}
		gcalc := gs.Calc(cfg.GSSessionNs)
		gs.Requires(gcalc, grecv)
		gresp := gs.Send(cfg.CtrlBytes, l.Host(h), tag)
		gs.Requires(gresp, gcalc)
		gsChain = gresp
		ack := host.Recv(cfg.CtrlBytes, l.GS(), tag)
		host.Requires(ack, syn)
		sessionDone[h] = ack
	}

	// per-component serialisation chains: each service processes requests
	// on its own stream(s)
	ccsChain := make([]goal.OpID, cfg.CCS)
	bssChain := make([]goal.OpID, cfg.BSS)
	for i := range ccsChain {
		ccsChain[i] = -1
	}
	for i := range bssChain {
		bssChain[i] = -1
	}
	var mdsChain goal.OpID = -1
	mds := b.Rank(l.MDS())

	// per (host, stream) chains with traced think time
	type streamState struct {
		head     goal.OpID
		lastTime float64 // of the stream's previous command; 0: none yet
	}
	streams := make([][]streamState, cfg.Hosts)
	for h := range streams {
		streams[h] = make([]streamState, cfg.StreamsPerHost)
		for s := range streams[h] {
			streams[h][s] = streamState{head: sessionDone[h]}
		}
	}

	for opIdx, op := range tr.Ops {
		h := op.ASU % cfg.Hosts
		strm := (op.ASU / cfg.Hosts) % cfg.StreamsPerHost
		st := &streams[h][strm]
		host := b.Rank(l.Host(h))
		cpu := int32(strm)
		tag := opTag(opIdx)

		// traced inter-arrival gap becomes host-side computation
		if gap := gapNs(st.lastTime, op.Time); gap > 0 {
			c := host.CalcOn(gap, cpu)
			host.Requires(c, st.head)
			st.head = c
		}
		st.lastTime = op.Time

		ccsIdx := int(op.LBA>>3) % cfg.CCS
		bssIdx := int(op.LBA) % cfg.BSS
		ccs := b.Rank(l.CCSRank(ccsIdx))
		ccsRank := l.CCSRank(ccsIdx)

		// 1. host asks the CCS which BSS owns the block (st.head is at
		// least the host's session ack)
		req := host.SendOn(cfg.CtrlBytes, ccsRank, tag, cpu)
		host.Requires(req, st.head)
		crecv := ccs.Recv(cfg.CtrlBytes, l.Host(h), tag)
		if ccsChain[ccsIdx] >= 0 {
			ccs.Requires(crecv, ccsChain[ccsIdx])
		}
		clook := ccs.Calc(cfg.CCSLookupNs)
		ccs.Requires(clook, crecv)
		cresp := ccs.Send(cfg.CtrlBytes, l.Host(h), tag)
		ccs.Requires(cresp, clook)
		ccsChain[ccsIdx] = cresp
		loc := host.RecvOn(cfg.CtrlBytes, ccsRank, tag, cpu)
		host.Requires(loc, req)

		var done goal.OpID
		if !op.Write {
			done = genRead(b, l, cfg, h, bssIdx, op.Bytes, tag, cpu, loc, &bssChain[bssIdx])
		} else {
			done = genWrite(b, l, cfg, h, bssIdx, op.Bytes, tag, cpu, loc, bssChain)
			// CCS notifies the metadata service asynchronously
			note := ccs.Send(cfg.CtrlBytes, l.MDS(), tag)
			ccs.Requires(note, clook)
			mrecv := mds.Recv(cfg.CtrlBytes, ccsRank, tag)
			if mdsChain >= 0 {
				mds.Requires(mrecv, mdsChain)
			}
			mupd := mds.Calc(cfg.MDSUpdateNs)
			mds.Requires(mupd, mrecv)
			mdsChain = mupd
		}
		think := host.CalcOn(cfg.HostThinkNs, cpu)
		host.Requires(think, done)
		st.head = think
	}

	s := b.Build()
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	return s, &l, nil
}

// gapNs is the traced think time, in nanoseconds, before a command issued
// at t seconds on a stream whose previous command was issued at last.
func gapNs(last, t float64) int64 {
	if last > 0 && t > last {
		return int64((t - last) * 1e9)
	}
	return 0
}

// count returns how many ops and requires edges Generate emits on every
// rank, so each rank's arrays are allocated once at their final size. The
// choreography's per-command counts are constants (read them off the
// session loop, the command loop, genRead and genWrite); the only things
// that depend on the trace are where a command is routed, whether it is
// preceded by a think-time gap, and that the first request a service
// instance handles has no predecessor to chain to.
func count(tr *spc.Trace, cfg Config, l Layout) (ops, edges []int) {
	ops, edges = make([]int, l.NumRanks()), make([]int, l.NumRanks())
	// emit books n ops and their edges on a rank. A service's edge counts
	// include the chain edge to its previous request; see the end.
	emit := func(rank, n, e int) {
		ops[rank] += n
		edges[rank] += e
	}
	for h := 0; h < cfg.Hosts; h++ {
		emit(l.Host(h), 2, 1) // syn; ack <- syn
		emit(l.SLB(), 2, 2)   // recv <- chain; fwd <- recv
		emit(l.GS(), 3, 3)    // recv <- chain; calc <- recv; resp <- calc
	}
	lastTime := make([]float64, cfg.Hosts*cfg.StreamsPerHost)
	for _, op := range tr.Ops {
		h := op.ASU % cfg.Hosts
		last := &lastTime[h*cfg.StreamsPerHost+(op.ASU/cfg.Hosts)%cfg.StreamsPerHost]
		if gapNs(*last, op.Time) > 0 {
			emit(l.Host(h), 1, 1)
		}
		*last = op.Time
		emit(l.Host(h), 5, 5) // CCS request and reply, BSS request/data and reply/ack, think
		ccs := l.CCSRank(int(op.LBA>>3) % cfg.CCS)
		emit(ccs, 3, 3) // recv <- chain; lookup <- recv; resp <- lookup
		primary := int(op.LBA) % cfg.BSS
		if !op.Write {
			emit(l.BSSRank(primary), 3, 3) // recv <- chain; read <- recv; data <- read
			continue
		}
		emit(ccs, 1, 1)     // note <- lookup
		emit(l.MDS(), 2, 2) // recv <- chain; update <- recv
		// primary: recv <- chain; write <- recv; per secondary fw <- recv
		// and pack <- recv; ack <- write and every pack
		emit(l.BSSRank(primary), 3+2*(cfg.Replicas-1), 3+3*(cfg.Replicas-1))
		for r := 1; r < cfg.Replicas; r++ {
			emit(l.BSSRank((primary+r)%cfg.BSS), 3, 3) // recv <- chain; write <- recv; ack <- write
		}
	}
	for r := cfg.Hosts; r < len(ops); r++ {
		if ops[r] > 0 {
			edges[r]-- // a service's first request chains to nothing
		}
	}
	return ops, edges
}

// genRead: host -> BSS request, BSS media read, BSS -> host data.
func genRead(b *goal.Builder, l Layout, cfg Config, h, bssIdx int, bytes int64, tag, cpu int32, after goal.OpID, bssChain *goal.OpID) goal.OpID {
	host := b.Rank(l.Host(h))
	bss := b.Rank(l.BSSRank(bssIdx))
	req := host.SendOn(cfg.CtrlBytes, l.BSSRank(bssIdx), tag, cpu)
	host.Requires(req, after)
	brecv := bss.Recv(cfg.CtrlBytes, l.Host(h), tag)
	if *bssChain >= 0 {
		bss.Requires(brecv, *bssChain)
	}
	bread := bss.Calc(cfg.BSSReadNs)
	bss.Requires(bread, brecv)
	bdata := bss.Send(bytes, l.Host(h), tag)
	bss.Requires(bdata, bread)
	*bssChain = bdata
	data := host.RecvOn(bytes, l.BSSRank(bssIdx), tag, cpu)
	host.Requires(data, req)
	return data
}

// genWrite: host streams data to the primary BSS, which forwards to
// Replicas-1 secondaries; secondaries ack the primary, the primary acks
// the host.
func genWrite(b *goal.Builder, l Layout, cfg Config, h, primary int, bytes int64, tag, cpu int32, after goal.OpID, bssChain []goal.OpID) goal.OpID {
	host := b.Rank(l.Host(h))
	prim := b.Rank(l.BSSRank(primary))
	data := host.SendOn(bytes, l.BSSRank(primary), tag, cpu)
	host.Requires(data, after)
	precv := prim.Recv(bytes, l.Host(h), tag)
	if bssChain[primary] >= 0 {
		prim.Requires(precv, bssChain[primary])
	}
	pwrite := prim.Calc(cfg.BSSWriteNs)
	prim.Requires(pwrite, precv)
	// replicate to the next Replicas-1 BSS instances
	acks := make([]goal.OpID, 0, cfg.Replicas-1)
	for r := 1; r < cfg.Replicas; r++ {
		sec := (primary + r) % cfg.BSS
		secRank := l.BSSRank(sec)
		fw := prim.Send(bytes, secRank, tag)
		prim.Requires(fw, precv)
		sb := b.Rank(secRank)
		srecv := sb.Recv(bytes, l.BSSRank(primary), tag)
		if bssChain[sec] >= 0 {
			sb.Requires(srecv, bssChain[sec])
		}
		swrite := sb.Calc(cfg.BSSWriteNs)
		sb.Requires(swrite, srecv)
		sack := sb.Send(cfg.CtrlBytes, l.BSSRank(primary), tag)
		sb.Requires(sack, swrite)
		bssChain[sec] = sack
		pack := prim.Recv(cfg.CtrlBytes, secRank, tag)
		prim.Requires(pack, precv)
		acks = append(acks, pack)
	}
	ack := prim.Send(cfg.CtrlBytes, l.Host(h), tag)
	prim.Requires(ack, pwrite)
	for _, a := range acks {
		prim.Requires(ack, a)
	}
	bssChain[primary] = ack
	hack := host.RecvOn(cfg.CtrlBytes, l.BSSRank(primary), tag, cpu)
	host.Requires(hack, data)
	return hack
}

func sessTag(host int) int32 { return int32(1<<28 + host) }
func opTag(opIdx int) int32  { return int32(opIdx + 1) }

// String describes the layout for reports.
func (l Layout) String() string {
	return fmt.Sprintf("directdrive{hosts=%d ccs=%d bss=%d +mds+gs+slb = %d ranks}",
		l.Hosts, l.CCS, l.BSS, l.NumRanks())
}
