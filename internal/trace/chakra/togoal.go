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

// pendingColl is one collective node awaiting lockstep decomposition,
// bracketed by its entry and exit dummies in the owning rank's chain.
type pendingColl struct {
	rank  int
	node  *Node
	kind  collective.Kind
	entry goal.OpID
	exit  goal.OpID
}

// ToGOAL converts a Chakra-like execution trace into a GOAL schedule —
// the ingestion path that lets ATLAHS replay the traces its AstraSim
// baseline consumes. Compute nodes become calc vertices, point-to-point
// COMM_SEND/COMM_RECV nodes become sends/receives matched by (peer, tag),
// and collective nodes are decomposed into point-to-point algorithms via
// internal/collective, in lockstep per communicator group (every member
// must issue the group's collectives in the same order). Unlike the
// AstraSim-lite feeder, P2P nodes and (configured) subgroups are
// supported.
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
	perGroup := map[string][]pendingColl{}
	for r := 0; r < n; r++ {
		rb := b.Rank(r)
		// done[id] is the GOAL op whose completion stands for the chakra
		// node: the op itself for comp/send/recv, the exit dummy for
		// collectives.
		done := map[int64]goal.OpID{}
		for i := range t.Ranks[r] {
			nd := &t.Ranks[r][i]
			var entry, op goal.OpID
			switch nd.Type {
			case NodeComp:
				op = rb.Calc(nd.IntAttrOr("runtime", 0))
				entry = op
			case NodeSendComm:
				dst := nd.IntAttrOr("comm_dst", -1)
				op = rb.Send(nd.IntAttrOr("comm_size", 0), int(dst), int32(nd.IntAttrOr("comm_tag", 0)))
				entry = op
			case NodeRecvComm:
				src := nd.IntAttrOr("comm_src", -1)
				op = rb.Recv(nd.IntAttrOr("comm_size", 0), int(src), int32(nd.IntAttrOr("comm_tag", 0)))
				entry = op
			case NodeCollComm:
				kind, ok := chakraToKind[nd.StrAttrOr("comm_type", "")]
				if !ok {
					return nil, fmt.Errorf("chakra: rank %d node %d: unsupported collective %q", r, nd.ID, nd.StrAttrOr("comm_type", ""))
				}
				group := nd.StrAttrOr("comm_group", cfg.WorldGroup)
				entry = rb.Calc(0)
				op = rb.Calc(0)
				rb.Requires(op, entry)
				perGroup[group] = append(perGroup[group], pendingColl{rank: r, node: nd, kind: kind, entry: entry, exit: op})
			default:
				return nil, fmt.Errorf("chakra: rank %d node %d: unknown node type %q", r, nd.ID, nd.Type)
			}
			for _, d := range append(append([]int64{}, nd.CtrlDeps...), nd.DataDeps...) {
				dep, ok := done[d]
				if !ok {
					return nil, fmt.Errorf("chakra: rank %d node %d: dependency %d appears after its dependent (nodes must be listed in dependency order)", r, nd.ID, d)
				}
				rb.Requires(entry, dep)
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
				rb := b.Rank(r)
				exit, err := collective.Decompose(rb, ref.kind, collective.Auto, mem, i, root, ref.node.IntAttrOr("comm_size", 0), copt, p.entry)
				if err != nil {
					return nil, fmt.Errorf("chakra: group %q collective #%d: %w", g, ci, err)
				}
				rb.Requires(p.exit, exit)
			}
			collInstance++
		}
	}

	sch := b.Build()
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	return sch, nil
}
