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
// Generate runs the one choreography twice, emitting onto one
// collective.Emitter per rank: first onto collective.Count counters, which
// size every rank exactly, then onto the rank builders, each grown to what
// its counter saw. Every Require call follows the add of the op it names,
// so every table is written in its final form on goal.Builder's counted,
// in-order path (goal.Builder states the contract): a rank's arrays are
// allocated once, at their final size, and Build hands them over.
package directdrive

import (
	"fmt"

	"atlahs/internal/collective"
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
	counts := make([]collective.Count, l.NumRanks())
	es := make([]collective.Emitter, l.NumRanks())
	for r := range counts {
		es[r] = &counts[r]
	}
	choreograph(es, tr, cfg, l)
	b := goal.NewBuilder(l.NumRanks())
	for r := range es {
		rb := b.Rank(r)
		rb.Grow(counts[r].Ops, counts[r].Edges, 0)
		es[r] = rb
	}
	choreograph(es, tr, cfg, l)

	s := b.Build()
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	return s, &l, nil
}

// choreograph emits the whole trace's traffic onto es, one emitter per
// rank of l.
func choreograph(es []collective.Emitter, tr *spc.Trace, cfg Config, l Layout) {
	// per-host session setup through SLB and GS (once per host)
	sessionDone := make([]goal.OpID, cfg.Hosts)
	var slbChain, gsChain goal.OpID = -1, -1
	slb := es[l.SLB()]
	gs := es[l.GS()]
	for h := 0; h < cfg.Hosts; h++ {
		host := es[l.Host(h)]
		tag := sessTag(h)
		syn := host.SendOn(cfg.CtrlBytes, l.SLB(), tag, 0)
		// SLB forwards to the gateway
		srecv := slb.RecvOn(cfg.CtrlBytes, l.Host(h), tag, 0)
		chain(slb, srecv, slbChain)
		fwd := slb.SendOn(cfg.CtrlBytes, l.GS(), tag, 0)
		slb.Require(fwd, srecv)
		slbChain = fwd
		// gateway sets up the session and answers the host directly
		grecv := gs.RecvOn(cfg.CtrlBytes, l.SLB(), tag, 0)
		chain(gs, grecv, gsChain)
		gcalc := gs.CalcOn(cfg.GSSessionNs, 0)
		gs.Require(gcalc, grecv)
		gresp := gs.SendOn(cfg.CtrlBytes, l.Host(h), tag, 0)
		gs.Require(gresp, gcalc)
		gsChain = gresp
		ack := host.RecvOn(cfg.CtrlBytes, l.GS(), tag, 0)
		host.Require(ack, syn)
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
	mds := es[l.MDS()]
	acks := make([]goal.OpID, cfg.Replicas-1) // genWrite's scratch

	// per (host, stream) chains with traced think time
	type streamState struct {
		head     goal.OpID
		lastTime float64 // of the stream's previous command; 0: none yet
	}
	streams := make([]streamState, cfg.Hosts*cfg.StreamsPerHost)
	for i := range streams {
		streams[i].head = sessionDone[i/cfg.StreamsPerHost]
	}

	for opIdx, op := range tr.Ops {
		h := op.ASU % cfg.Hosts
		strm := (op.ASU / cfg.Hosts) % cfg.StreamsPerHost
		st := &streams[h*cfg.StreamsPerHost+strm]
		host := es[l.Host(h)]
		cpu := int32(strm)
		tag := opTag(opIdx)

		// traced inter-arrival gap becomes host-side computation
		if gap := gapNs(st.lastTime, op.Time); gap > 0 {
			c := host.CalcOn(gap, cpu)
			host.Require(c, st.head)
			st.head = c
		}
		st.lastTime = op.Time

		ccsIdx := int(op.LBA>>3) % cfg.CCS
		bssIdx := int(op.LBA) % cfg.BSS
		ccsRank := l.CCSRank(ccsIdx)
		ccs := es[ccsRank]

		// 1. host asks the CCS which BSS owns the block (st.head is at
		// least the host's session ack)
		req := host.SendOn(cfg.CtrlBytes, ccsRank, tag, cpu)
		host.Require(req, st.head)
		crecv := ccs.RecvOn(cfg.CtrlBytes, l.Host(h), tag, 0)
		chain(ccs, crecv, ccsChain[ccsIdx])
		clook := ccs.CalcOn(cfg.CCSLookupNs, 0)
		ccs.Require(clook, crecv)
		cresp := ccs.SendOn(cfg.CtrlBytes, l.Host(h), tag, 0)
		ccs.Require(cresp, clook)
		ccsChain[ccsIdx] = cresp
		loc := host.RecvOn(cfg.CtrlBytes, ccsRank, tag, cpu)
		host.Require(loc, req)

		var done goal.OpID
		if !op.Write {
			done = genRead(es, l, cfg, h, bssIdx, op.Bytes, tag, cpu, loc, &bssChain[bssIdx])
		} else {
			done = genWrite(es, l, cfg, h, bssIdx, op.Bytes, tag, cpu, loc, bssChain, acks)
			// CCS notifies the metadata service asynchronously
			note := ccs.SendOn(cfg.CtrlBytes, l.MDS(), tag, 0)
			ccs.Require(note, clook)
			mrecv := mds.RecvOn(cfg.CtrlBytes, ccsRank, tag, 0)
			chain(mds, mrecv, mdsChain)
			mupd := mds.CalcOn(cfg.MDSUpdateNs, 0)
			mds.Require(mupd, mrecv)
			mdsChain = mupd
		}
		think := host.CalcOn(cfg.HostThinkNs, cpu)
		host.Require(think, done)
		st.head = think
	}
}

// chain makes op require dep, the previous request of op's service
// instance, unless dep is -1: the instance has handled nothing yet.
func chain(e collective.Emitter, op, dep goal.OpID) {
	if dep >= 0 {
		e.Require(op, dep)
	}
}

// gapNs is the traced think time, in nanoseconds, before a command issued
// at t seconds on a stream whose previous command was issued at last.
func gapNs(last, t float64) int64 {
	if last > 0 && t > last {
		return int64((t - last) * 1e9)
	}
	return 0
}

// genRead: host -> BSS request, BSS media read, BSS -> host data.
func genRead(es []collective.Emitter, l Layout, cfg Config, h, bssIdx int, bytes int64, tag, cpu int32, after goal.OpID, bssChain *goal.OpID) goal.OpID {
	host := es[l.Host(h)]
	bss := es[l.BSSRank(bssIdx)]
	req := host.SendOn(cfg.CtrlBytes, l.BSSRank(bssIdx), tag, cpu)
	host.Require(req, after)
	brecv := bss.RecvOn(cfg.CtrlBytes, l.Host(h), tag, 0)
	chain(bss, brecv, *bssChain)
	bread := bss.CalcOn(cfg.BSSReadNs, 0)
	bss.Require(bread, brecv)
	bdata := bss.SendOn(bytes, l.Host(h), tag, 0)
	bss.Require(bdata, bread)
	*bssChain = bdata
	data := host.RecvOn(bytes, l.BSSRank(bssIdx), tag, cpu)
	host.Require(data, req)
	return data
}

// genWrite: host streams data to the primary BSS, which forwards to
// Replicas-1 secondaries; secondaries ack the primary, the primary acks
// the host. acks is scratch space of length Replicas-1.
func genWrite(es []collective.Emitter, l Layout, cfg Config, h, primary int, bytes int64, tag, cpu int32, after goal.OpID, bssChain, acks []goal.OpID) goal.OpID {
	host := es[l.Host(h)]
	prim := es[l.BSSRank(primary)]
	data := host.SendOn(bytes, l.BSSRank(primary), tag, cpu)
	host.Require(data, after)
	precv := prim.RecvOn(bytes, l.Host(h), tag, 0)
	chain(prim, precv, bssChain[primary])
	pwrite := prim.CalcOn(cfg.BSSWriteNs, 0)
	prim.Require(pwrite, precv)
	// replicate to the next Replicas-1 BSS instances
	for r := 1; r < cfg.Replicas; r++ {
		sec := (primary + r) % cfg.BSS
		secRank := l.BSSRank(sec)
		fw := prim.SendOn(bytes, secRank, tag, 0)
		prim.Require(fw, precv)
		sb := es[secRank]
		srecv := sb.RecvOn(bytes, l.BSSRank(primary), tag, 0)
		chain(sb, srecv, bssChain[sec])
		swrite := sb.CalcOn(cfg.BSSWriteNs, 0)
		sb.Require(swrite, srecv)
		sack := sb.SendOn(cfg.CtrlBytes, l.BSSRank(primary), tag, 0)
		sb.Require(sack, swrite)
		bssChain[sec] = sack
		pack := prim.RecvOn(cfg.CtrlBytes, secRank, tag, 0)
		prim.Require(pack, precv)
		acks[r-1] = pack
	}
	ack := prim.SendOn(cfg.CtrlBytes, l.Host(h), tag, 0)
	prim.Require(ack, pwrite)
	for _, a := range acks {
		prim.Require(ack, a)
	}
	bssChain[primary] = ack
	hack := host.RecvOn(cfg.CtrlBytes, l.BSSRank(primary), tag, cpu)
	host.Require(hack, data)
	return hack
}

func sessTag(host int) int32 { return int32(1<<28 + host) }
func opTag(opIdx int) int32  { return int32(opIdx + 1) }

// String describes the layout for reports.
func (l Layout) String() string {
	return fmt.Sprintf("directdrive{hosts=%d ccs=%d bss=%d +mds+gs+slb = %d ranks}",
		l.Hosts, l.CCS, l.BSS, l.NumRanks())
}
