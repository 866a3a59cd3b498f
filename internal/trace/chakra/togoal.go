package chakra

import (
	"fmt"
	"sort"

	"atlahs/internal/collective"
	"atlahs/internal/goal"
)

// ConvertConfig parameterises Chakra-to-GOAL conversion.
type ConvertConfig struct {
	// WorldGroup is the comm_group name treated as the full rank set
	// (default chakra.WorldGroup, "world").
	WorldGroup string
	// Groups maps subgroup names to their member ranks (in communicator
	// rank order). Chakra traces carry only group names on collective
	// nodes, not memberships, so subgroup collectives need this table; a
	// collective over a group that is neither the world group nor listed
	// here is an error.
	Groups map[string][]int
	// ReduceNsPerByte charges local reduction cost inside reducing
	// collectives (default 0).
	ReduceNsPerByte float64
}

func (c ConvertConfig) withDefaults() ConvertConfig {
	if c.WorldGroup == "" {
		c.WorldGroup = WorldGroup
	}
	return c
}

var chakraToKind = map[string]collective.Kind{
	CollAllReduce:     collective.Allreduce,
	CollAllGather:     collective.Allgather,
	CollReduceScatter: collective.ReduceScatter,
	CollAllToAll:      collective.Alltoall,
	CollBroadcast:     collective.Bcast,
}

// collTagBase namespaces collective tags away from the trace's P2P tags,
// matching the other converters' convention.
const collTagBase = 1 << 24

// pendingColl is the k-th collective node of the trace, awaiting lockstep
// decomposition from its entry dummy in the owning rank's chain.
type pendingColl struct {
	rank  int
	node  *Node
	kind  collective.Kind
	entry goal.OpID
	k     int
}

// ToGOAL converts a Chakra-like execution trace into a GOAL schedule —
// the ingestion path that lets ATLAHS replay the traces its AstraSim
// baseline consumes. Compute nodes become calc vertices, point-to-point
// COMM_SEND/COMM_RECV nodes become sends/receives matched by (peer, tag),
// and collective nodes are decomposed into point-to-point algorithms via
// internal/collective, in lockstep per communicator group (every member
// must issue the group's collectives in the same order). Unlike the
// AstraSim-lite feeder, P2P nodes and (configured) subgroups are
// supported. It emits twice: onto collective.Count counters, which find
// the op each collective ends on and size each rank, then onto the rank
// builders, grown to that size and wired in op order.
func ToGOAL(t *Trace, cfg ConvertConfig) (*goal.Schedule, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := t.NumRanks()
	if n == 0 {
		return nil, fmt.Errorf("chakra: empty trace")
	}
	world := make([]int, n)
	for i := range world {
		world[i] = i
	}
	members := func(group string) ([]int, error) {
		if group == cfg.WorldGroup {
			return world, nil
		}
		if m, ok := cfg.Groups[group]; ok {
			return m, nil
		}
		return nil, fmt.Errorf("chakra: collective over unknown group %q (not the world group; add it to ConvertConfig.Groups)", group)
	}

	b := goal.NewBuilder(n)
	counts := make([]collective.Count, n)
	es := make([]collective.Emitter, n)
	for r := range es {
		es[r] = &counts[r]
	}
	// tails[k] is the op the k-th collective node ends on. done[id] is
	// the GOAL op whose completion stands for the chakra node: the op
	// itself for comp/send/recv, the exit dummy for collectives.
	var tails []goal.OpID
	done := map[int64]goal.OpID{}
	for pass := range 2 {
		perGroup := map[string][]pendingColl{}
		k := 0
		for r := 0; r < n; r++ {
			e := es[r]
			clear(done)
			for i := range t.Ranks[r] {
				nd := &t.Ranks[r][i]
				var entry, op goal.OpID
				switch nd.Type {
				case NodeComp:
					op = e.CalcOn(nd.IntAttrOr("runtime", 0), 0)
					entry = op
				case NodeSendComm:
					dst := nd.IntAttrOr("comm_dst", -1)
					op = e.SendOn(nd.IntAttrOr("comm_size", 0), int(dst), int32(nd.IntAttrOr("comm_tag", 0)), 0)
					entry = op
				case NodeRecvComm:
					src := nd.IntAttrOr("comm_src", -1)
					op = e.RecvOn(nd.IntAttrOr("comm_size", 0), int(src), int32(nd.IntAttrOr("comm_tag", 0)), 0)
					entry = op
				case NodeCollComm:
					kind, ok := chakraToKind[nd.StrAttrOr("comm_type", "")]
					if !ok {
						return nil, fmt.Errorf("chakra: rank %d node %d: unsupported collective %q", r, nd.ID, nd.StrAttrOr("comm_type", ""))
					}
					group := nd.StrAttrOr("comm_group", cfg.WorldGroup)
					entry = e.CalcOn(0, 0)
					op = e.CalcOn(0, 0)
					perGroup[group] = append(perGroup[group], pendingColl{rank: r, node: nd, kind: kind, entry: entry, k: k})
				default:
					return nil, fmt.Errorf("chakra: rank %d node %d: unknown node type %q", r, nd.ID, nd.Type)
				}
				for _, deps := range [2][]int64{nd.CtrlDeps, nd.DataDeps} {
					for _, d := range deps {
						dep, ok := done[d]
						if !ok {
							return nil, fmt.Errorf("chakra: rank %d node %d: dependency %d appears after its dependent (nodes must be listed in dependency order)", r, nd.ID, d)
						}
						e.Require(entry, dep)
					}
				}
				if op != entry { // a collective's exit dummy
					if k == len(tails) {
						tails = append(tails, entry) // a stand-in until the first pass finds it
					}
					e.Require(op, entry)
					e.Require(op, tails[k])
					k++
				}
				done[nd.ID] = op
			}
		}

		// Decompose each group's collectives in lockstep across its members.
		groups := make([]string, 0, len(perGroup))
		for g := range perGroup {
			groups = append(groups, g)
		}
		sort.Strings(groups)
		collInstance := 0
		for _, g := range groups {
			mem, err := members(g)
			if err != nil {
				return nil, err
			}
			pos := map[int]int{}
			for i, r := range mem {
				pos[r] = i
			}
			perMember := make([][]pendingColl, len(mem))
			for _, p := range perGroup[g] {
				i, ok := pos[p.rank]
				if !ok {
					return nil, fmt.Errorf("chakra: group %q collective issued by non-member rank %d", g, p.rank)
				}
				perMember[i] = append(perMember[i], p)
			}
			for ci := 0; ; ci++ {
				var ref *pendingColl
				for i := range mem {
					if ci < len(perMember[i]) {
						ref = &perMember[i][ci]
						break
					}
				}
				if ref == nil {
					break
				}
				for i := range mem {
					if ci >= len(perMember[i]) {
						return nil, fmt.Errorf("chakra: group %q: rank %d missing collective #%d (%s)",
							g, mem[i], ci, ref.node.StrAttrOr("comm_type", ""))
					}
					p := &perMember[i][ci]
					if p.kind != ref.kind {
						return nil, fmt.Errorf("chakra: group %q collective #%d: rank %d issues %v while rank %d issues %v",
							g, ci, p.rank, p.kind, ref.rank, ref.kind)
					}
					// The decomposition uses one (size, root) for the whole
					// group, so disagreeing members mean a malformed trace —
					// reject it instead of silently adopting ref's values.
					if ps, rs := p.node.IntAttrOr("comm_size", 0), ref.node.IntAttrOr("comm_size", 0); ps != rs {
						return nil, fmt.Errorf("chakra: group %q collective #%d: rank %d sends %d bytes while rank %d sends %d",
							g, ci, p.rank, ps, ref.rank, rs)
					}
					if pr, rr := p.node.IntAttrOr("comm_root", 0), ref.node.IntAttrOr("comm_root", 0); pr != rr {
						return nil, fmt.Errorf("chakra: group %q collective #%d: rank %d roots at %d while rank %d roots at %d",
							g, ci, p.rank, pr, ref.rank, rr)
					}
				}
				// every member has a collective here, so mem names distinct
				// ranks of the trace: pos took each to its own index
				root := int(ref.node.IntAttrOr("comm_root", 0))
				copt := collective.Options{
					TagBase:         int32(collTagBase + collInstance*collective.TagSpan),
					ReduceNsPerByte: cfg.ReduceNsPerByte,
				}
				for i, r := range mem {
					p := &perMember[i][ci]
					tail, err := collective.Decompose(es[r], ref.kind, collective.Auto, mem, i, root, ref.node.IntAttrOr("comm_size", 0), copt, p.entry)
					if err != nil {
						return nil, fmt.Errorf("chakra: group %q collective #%d: %w", g, ci, err)
					}
					tails[p.k] = tail
				}
				collInstance++
			}
		}
		for r := range es {
			if pass == 0 {
				b.Rank(r).Grow(counts[r].Ops, counts[r].Edges, 0)
			}
			es[r] = b.Rank(r)
		}
	}

	sch := b.Build()
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	return sch, nil
}
