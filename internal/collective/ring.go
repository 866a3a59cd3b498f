package collective

import "atlahs/internal/goal"

// channelOrder returns the ring order for a channel: NCCL alternates ring
// direction across channels to spread load over both directions of every
// link, so odd channels traverse the ring reversed.
func channelOrder(ranks []int, c int) ([]int, []int) {
	n := len(ranks)
	order := ranks
	if c%2 == 1 {
		order = make([]int, n)
		for i, r := range ranks {
			order[n-1-i] = r
		}
	}
	// origPos[i] = position of order[i] in ranks
	origPos := make([]int, n)
	if c%2 == 1 {
		for i := range order {
			origPos[i] = n - 1 - i
		}
	} else {
		for i := range order {
			origPos[i] = i
		}
	}
	return order, origPos
}

// ringAllreduce is the bandwidth-optimal reduce-scatter + allgather ring:
// each rank sends 2(N-1)/N of the payload per channel. The payload is
// split across channels (parallel rings), and within a channel into N
// blocks rotated around the ring for 2(N-1) steps. Reducing receives may
// charge a local reduction calc.
func ringAllreduce(b *goal.Builder, ranks []int, bytes int64, opt Options, entry []goal.OpID) []goal.OpID {
	n := len(ranks)
	ch := opt.channels()
	chanBytes := splitAcross(bytes, ch)
	exits := make([][]goal.OpID, n)
	for c := 0; c < ch; c++ {
		tag := opt.TagBase + int32(c)
		cpu := opt.cpuFor(c)
		order, origPos := channelOrder(ranks, c)
		block := splitAcross(chanBytes[c], n) // per-step block sizes
		// prevRecv[i]: the recv op of order position i from the previous
		// step; newRecv collects this step's and the two swap
		prevRecv, newRecv := make([]goal.OpID, n), make([]goal.OpID, n)
		for i := range prevRecv {
			prevRecv[i] = entryOf(entry, origPos[i])
		}
		for step := 0; step < 2*(n-1); step++ {
			reducing := step < n-1
			for i := 0; i < n; i++ {
				rb := b.Rank(order[i])
				next := order[(i+1)%n]
				prev := order[(i+n-1)%n]
				// block index flowing out of position i at this step
				outBlock := block[(i-step%n+2*n)%n]
				inBlock := block[(i-1-step%n+2*n)%n]
				s := rb.SendOn(WireBytes(opt.Protocol, outBlock), next, tag, cpu)
				requireEntry(rb, s, prevRecv[i])
				r := rb.RecvOn(WireBytes(opt.Protocol, inBlock), prev, tag, cpu)
				requireEntry(rb, r, entryOf(entry, origPos[i]))
				last := r
				if reducing && opt.ReduceNsPerByte > 0 && inBlock > 0 {
					calc := rb.CalcOn(int64(opt.ReduceNsPerByte*float64(inBlock)), cpu)
					rb.Requires(calc, r)
					last = calc
				}
				newRecv[i] = last
			}
			prevRecv, newRecv = newRecv, prevRecv
		}
		for i := 0; i < n; i++ {
			exits[origPos[i]] = append(exits[origPos[i]], prevRecv[i])
		}
	}
	out := make([]goal.OpID, n)
	for i := 0; i < n; i++ {
		out[i] = exitOf(b.Rank(ranks[i]), opt, exits[i]...)
	}
	return out
}

// ringBcast pipelines the payload along the ring in buffer-limited chunks
// (paper Fig 4): the root pushes chunks to its successor; every
// intermediate rank forwards each chunk as soon as it arrives; the last
// rank only receives.
func ringBcast(b *goal.Builder, ranks []int, root int, bytes int64, opt Options, entry []goal.OpID) []goal.OpID {
	n := len(ranks)
	ch := opt.channels()
	chanBytes := splitAcross(bytes, ch)
	exits := make([][]goal.OpID, n)
	for c := 0; c < ch; c++ {
		tag := opt.TagBase + int32(c)
		cpu := opt.cpuFor(c)
		chunks := chunksOf(chanBytes[c], opt.chunk())
		// ring order starting at root: position p is ranks[(root+p)%n]
		var prevSend goal.OpID = -1
		lastRecvAt := make([]goal.OpID, n) // per position, last chunk recv
		lastSendAt := make([]goal.OpID, n)
		for i := range lastRecvAt {
			lastRecvAt[i] = -1
			lastSendAt[i] = -1
		}
		for _, chunk := range chunks {
			w := WireBytes(opt.Protocol, chunk)
			// root sends chunk to its successor (sequential on the stream,
			// Fig 4's "transmitted sequentially")
			rootRank := ranks[root]
			rb := b.Rank(rootRank)
			s := rb.SendOn(w, ranks[(root+1)%n], tag, cpu)
			requireEntry(rb, s, entryOf(entry, root))
			if prevSend >= 0 {
				rb.Requires(s, prevSend)
			}
			prevSend = s
			lastSendAt[root] = s
			// forwarders
			for p := 1; p < n; p++ {
				pos := (root + p) % n
				rb := b.Rank(ranks[pos])
				prevPos := (root + p - 1) % n
				r := rb.RecvOn(w, ranks[prevPos], tag, cpu)
				requireEntry(rb, r, entryOf(entry, pos))
				if lastRecvAt[pos] >= 0 {
					rb.Requires(r, lastRecvAt[pos])
				}
				lastRecvAt[pos] = r
				if p < n-1 {
					f := rb.SendOn(w, ranks[(pos+1)%n], tag, cpu)
					rb.Requires(f, r)
					if lastSendAt[pos] >= 0 {
						rb.Requires(f, lastSendAt[pos])
					}
					lastSendAt[pos] = f
				}
			}
		}
		for i := 0; i < n; i++ {
			if i == root {
				exits[i] = append(exits[i], lastSendAt[i])
			} else {
				term := lastRecvAt[i]
				if lastSendAt[i] >= 0 {
					term = exitOf(b.Rank(ranks[i]), opt, lastRecvAt[i], lastSendAt[i])
				}
				exits[i] = append(exits[i], term)
			}
		}
	}
	out := make([]goal.OpID, n)
	for i := 0; i < n; i++ {
		out[i] = exitOf(b.Rank(ranks[i]), opt, exits[i]...)
	}
	return out
}

// ringAllgather rotates every rank's block around the ring in N-1 steps.
func ringAllgather(b *goal.Builder, ranks []int, bytes int64, opt Options, entry []goal.OpID) []goal.OpID {
	n := len(ranks)
	ch := opt.channels()
	chanBytes := splitAcross(bytes, ch)
	exits := make([][]goal.OpID, n)
	for c := 0; c < ch; c++ {
		tag := opt.TagBase + int32(c)
		cpu := opt.cpuFor(c)
		w := WireBytes(opt.Protocol, chanBytes[c])
		prevRecv, newRecv := make([]goal.OpID, n), make([]goal.OpID, n)
		for i := range prevRecv {
			prevRecv[i] = entryOf(entry, i)
		}
		for step := 0; step < n-1; step++ {
			for i := 0; i < n; i++ {
				rb := b.Rank(ranks[i])
				s := rb.SendOn(w, ranks[(i+1)%n], tag, cpu)
				requireEntry(rb, s, prevRecv[i])
				r := rb.RecvOn(w, ranks[(i+n-1)%n], tag, cpu)
				requireEntry(rb, r, entryOf(entry, i))
				newRecv[i] = r
			}
			prevRecv, newRecv = newRecv, prevRecv
		}
		for i := 0; i < n; i++ {
			exits[i] = append(exits[i], prevRecv[i])
		}
	}
	out := make([]goal.OpID, n)
	for i := 0; i < n; i++ {
		out[i] = exitOf(b.Rank(ranks[i]), opt, exits[i]...)
	}
	return out
}

// ringReduceScatter is the reducing half of the ring allreduce: N-1 steps,
// each moving one block and reducing on arrival.
func ringReduceScatter(b *goal.Builder, ranks []int, bytes int64, opt Options, entry []goal.OpID) []goal.OpID {
	n := len(ranks)
	ch := opt.channels()
	chanBytes := splitAcross(bytes, ch)
	exits := make([][]goal.OpID, n)
	for c := 0; c < ch; c++ {
		tag := opt.TagBase + int32(c)
		cpu := opt.cpuFor(c)
		block := splitAcross(chanBytes[c], n)
		prevRecv, newRecv := make([]goal.OpID, n), make([]goal.OpID, n)
		for i := range prevRecv {
			prevRecv[i] = entryOf(entry, i)
		}
		for step := 0; step < n-1; step++ {
			for i := 0; i < n; i++ {
				rb := b.Rank(ranks[i])
				outBlock := block[(i-step%n+2*n)%n]
				inBlock := block[(i-1-step%n+2*n)%n]
				s := rb.SendOn(WireBytes(opt.Protocol, outBlock), ranks[(i+1)%n], tag, cpu)
				requireEntry(rb, s, prevRecv[i])
				r := rb.RecvOn(WireBytes(opt.Protocol, inBlock), ranks[(i+n-1)%n], tag, cpu)
				requireEntry(rb, r, entryOf(entry, i))
				last := r
				if opt.ReduceNsPerByte > 0 && inBlock > 0 {
					calc := rb.CalcOn(int64(opt.ReduceNsPerByte*float64(inBlock)), cpu)
					rb.Requires(calc, r)
					last = calc
				}
				newRecv[i] = last
			}
			prevRecv, newRecv = newRecv, prevRecv
		}
		for i := 0; i < n; i++ {
			exits[i] = append(exits[i], prevRecv[i])
		}
	}
	out := make([]goal.OpID, n)
	for i := 0; i < n; i++ {
		out[i] = exitOf(b.Rank(ranks[i]), opt, exits[i]...)
	}
	return out
}
