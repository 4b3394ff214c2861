package core

// This file holds the breakpoint-compressed merge kernel of the power
// dynamic program and the lazy provenance reconstruction it relies on.
//
// Without pre-existing servers every reuse dimension of a table
// collapses to 1, so a node's table is a stack of rows along the n_M
// axis — the innermost, stride-1 field: row index = flat / rowLen.
// Along n_M each row obeys the monotone contract of breakrow.go (one
// more mode-M server, the largest capacity, can always absorb an
// unserved subtree) but only up to the row's effective length
// rowLen - Σ(other new counts): past it the subtree's node count
// admits no placement by pigeonhole, so the tail is identically
// unreached. The kernel therefore encodes and convolves rows within
// their effective lengths and re-fills the tails on decode. Both
// properties are verified at encode time; any violation falls back to
// the dense kernel, keeping compression exact unconditionally.
//
// A merge folds every (acc row, child row) pair into output rows:
//
//   - the no-place and mode-M place options land in the coordinate-sum
//     row, and their contribution is exactly bpPlaceMerge — the capped
//     min-plus convolution plus the equip point one cell right;
//   - a mode-m place (m < M) lands in the sum row bumped by one in
//     field m and contributes the acc row shifted to the first child
//     cell mode m can carry (bpShift) — the staircase the dense
//     kernel's placeBump writes draw.
//
// Output rows accumulate the pair contributions with envMin. The
// result is cell-identical to the dense kernel; provenance is not
// materialised — reconstruction re-derives a cell's decision lazily
// from the step's retained row snapshots, scanning candidates in the
// dense kernel's (acc cell, child cell, mode) order.

// maxPowerDigits bounds the mode count the compressed power kernel
// handles with stack-allocated digit vectors; larger instances (far
// beyond the paper's experiments, and intractable for the dense DP
// anyway) fall back to the dense kernel.
const maxPowerDigits = 16

// bumpDigits advances a row-major digit vector with the given radix,
// maintaining the digit sum. Returns false when the vector wraps.
func bumpDigits(dig []int32, radix int32, sum *int32) bool {
	for f := len(dig) - 1; f >= 0; f-- {
		dig[f]++
		*sum++
		if dig[f] < radix {
			return true
		}
		*sum -= dig[f]
		dig[f] = 0
	}
	return false
}

// encodeTableRows encodes every n_M row of a no-pre power table,
// clipped to its effective length, appending the runs to *runs with
// per-row offsets in *off. Returns false when any row violates the
// monotone contract or holds a reached value past its effective
// length — the caller must then run the dense kernel.
func encodeTableRows(tab []int32, rows int, rowLen int32, M int, off *[]int32, runs *[]bpRun, tmp *[]bpRun) bool {
	*off = grown(*off, rows+1)
	(*off)[0] = 0
	*runs = (*runs)[:0]
	var dig [maxPowerDigits]int32
	dg := dig[:M-1]
	sum := int32(0)
	for r := 0; r < rows; r++ {
		base := r * int(rowLen)
		eff := max(rowLen-sum, 0)
		enc, ok := encodeRuns32(tab[base:base+int(eff)], pUnreached, *tmp)
		*runs = append(*runs, enc...)
		*tmp = enc[:0]
		if !ok {
			return false
		}
		(*off)[r+1] = int32(len(*runs))
		for i := base + int(eff); i < base+int(rowLen); i++ {
			if tab[i] != pUnreached {
				return false
			}
		}
		bumpDigits(dg, rowLen, &sum)
	}
	return true
}

// mergeCompressed is the breakpoint-compressed counterpart of
// mergeInto's dense kernel for merges without pre-existing servers. It reads the dense acc and child tables, computes in
// runs-space and decodes the dense output, so everything around the
// merge (retained tables, the root fold, the root scan) is untouched.
// Returns false — with out unwritten — when a row fails the monotone
// verification, in which case the caller runs the dense kernel.
func (d *PowerDP) mergeCompressed(step *pStep, acc []int32, accShape shape, chVals []int32, chShape, outShape shape, out []int32, sc *bpScratch, ms *mergeStats) bool {
	M := d.M
	if M-1 > maxPowerDigits {
		return false
	}
	accLen, chLen, outLen := accShape.dims[M-1], chShape.dims[M-1], outShape.dims[M-1]
	accRows := accShape.size / int(accLen)
	chRows := chShape.size / int(chLen)
	outRows := outShape.size / int(outLen)

	if !encodeTableRows(acc, accRows, accLen, M, &sc.accOff, &sc.accRuns, &sc.tmp) {
		return false
	}
	if !encodeTableRows(chVals, chRows, chLen, M, &sc.cols, &sc.colRuns, &sc.tmp) {
		return false
	}
	ms.rows += accRows + chRows

	// Per (child row, mode m < M): the first child cell mode m can
	// carry — a suffix of the row's feasible cells, since values only
	// shrink rightward. -1 when even the smallest value exceeds the cap.
	caps := d.prob.Power.Caps
	sc.modeStarts = grown(sc.modeStarts, chRows*(M-1))
	for r := 0; r < chRows; r++ {
		cRuns := sc.colRuns[sc.cols[r]:sc.cols[r+1]]
		for m := 1; m < M; m++ {
			s := int32(-1)
			for _, run := range cRuns {
				if run.val <= int64(caps[m-1]) {
					s = run.start
					break
				}
			}
			sc.modeStarts[r*(M-1)+(m-1)] = s
		}
	}

	sc.rows = grownKeep(sc.rows, outRows)
	rows := sc.rows[:outRows]
	for r := range rows {
		rows[r] = rows[r][:0]
	}

	// Row-space weights: the output row index moves by outW[f] when
	// field f's coordinate moves by one. Digit sums never carry — the
	// per-field out dimension exceeds the acc and child dimensions
	// combined — so row indices add componentwise.
	var outW [maxPowerDigits]int32
	w := int32(1)
	for f := M - 2; f >= 0; f-- {
		outW[f] = w
		w *= outLen
	}

	outN := outLen - 1
	wmSum := int64(d.wm)
	var aDig, cDig [maxPowerDigits]int32
	ad := aDig[:M-1]
	sumA := int32(0)
	for ar := 0; ar < accRows; ar++ {
		aRuns := sc.accRuns[sc.accOff[ar]:sc.accOff[ar+1]]
		if len(aRuns) != 0 {
			baseA := int32(0)
			for f := 0; f < M-1; f++ {
				baseA += ad[f] * outW[f]
			}
			cd := cDig[:M-1]
			for f := range cd {
				cd[f] = 0
			}
			sumC := int32(0)
			for cr := 0; cr < chRows; cr++ {
				cRuns := sc.colRuns[sc.cols[cr]:sc.cols[cr+1]]
				if len(cRuns) != 0 {
					baseC := int32(0)
					for f := 0; f < M-1; f++ {
						baseC += cd[f] * outW[f]
					}
					row0 := baseA + baseC
					s0 := sumA + sumC
					ms.cells += len(aRuns) + len(cRuns)
					res := bpPlaceMerge(aRuns, cRuns, wmSum, outN-s0, sc)
					rows[row0], sc.tmp = envMinInto(rows[row0], res, sc.tmp)
					if lim := outN - s0 - 1; lim >= 0 {
						for m := 1; m < M; m++ {
							sm := sc.modeStarts[cr*(M-1)+(m-1)]
							if sm < 0 {
								continue
							}
							sh := bpShift(aRuns, sm, lim, sc.ch)
							r := row0 + outW[m-1]
							rows[r], sc.tmp = envMinInto(rows[r], sh, sc.tmp)
							sc.ch = sh[:0]
						}
					}
				}
				bumpDigits(cd, chLen, &sumC)
			}
		}
		bumpDigits(ad, accLen, &sumA)
	}

	// Decode the accumulated rows into the dense output and snapshot
	// the step's inputs and outputs for lazy provenance and suffix
	// replays.
	step.comp = true
	step.accLen, step.chLen, step.outLen = accLen, chLen, outLen
	step.inOff = append(step.inOff[:0], sc.accOff[:accRows+1]...)
	step.inRuns = append(step.inRuns[:0], sc.accRuns...)
	step.chOff = append(step.chOff[:0], sc.cols[:chRows+1]...)
	step.chRuns = append(step.chRuns[:0], sc.colRuns...)
	step.outOff = grown(step.outOff, outRows+1)
	step.outOff[0] = 0
	step.outRuns = step.outRuns[:0]
	od := aDig[:M-1]
	for f := range od {
		od[f] = 0
	}
	sumO := int32(0)
	for r := 0; r < outRows; r++ {
		eff := max(outLen-sumO, 0)
		base := r * int(outLen)
		decodeRuns32(rows[r], out[base:base+int(eff)], pUnreached)
		for i := base + int(eff); i < base+int(outLen); i++ {
			out[i] = pUnreached
		}
		step.outRuns = append(step.outRuns, rows[r]...)
		step.outOff[r+1] = int32(len(step.outRuns))
		bumpDigits(od, outLen, &sumO)
	}
	return true
}

// envMinInto folds src into the accumulated row acc, using spare as
// the envMin destination, and returns the new row plus the displaced
// buffer (so the two storages ping-pong without allocating).
func envMinInto(acc, src, spare []bpRun) (row, next []bpRun) {
	if len(acc) == 0 {
		return append(acc, src...), spare
	}
	return envMin(acc, src, spare[:0]), acc
}

// decodeStep expands the output snapshot of a compressed merge step
// back into a dense table — the accumulated input of the step after
// it, used by the suffix replays of solveNode — restoring the
// unreached tails past each row's effective length.
func decodeStep(step *pStep, dst []int32, M int) {
	outLen := step.outLen
	rows := len(step.outOff) - 1
	var dig [maxPowerDigits]int32
	dg := dig[:M-1]
	sum := int32(0)
	for r := 0; r < rows; r++ {
		eff := max(outLen-sum, 0)
		base := r * int(outLen)
		decodeRuns32(step.outRuns[step.outOff[r]:step.outOff[r+1]], dst[base:base+int(eff)], pUnreached)
		for i := base + int(eff); i < base+int(outLen); i++ {
			dst[i] = pUnreached
		}
		bumpDigits(dg, outLen, &sum)
	}
}

// lazyProv re-derives the provenance of one output cell of a
// compressed merge step: the first (acc cell, child cell, mode) triple
// in the dense kernel's scan order — exactly the packProv order — that
// achieves the cell's value. Returns noProv when the cell is
// unreached.
func (st *pStep) lazyProv(cell int32, caps []int, M int) uint64 {
	accLen, chLen, outLen := st.accLen, st.chLen, st.outLen
	outRow := cell / outLen
	k := cell % outLen
	vstar := bpAt(st.outRuns[st.outOff[outRow]:st.outOff[outRow+1]], k)
	if vstar >= bpInfVal {
		return noProv
	}

	// Child row-space weights.
	var chW [maxPowerDigits]int32
	w := int32(1)
	for f := M - 2; f >= 0; f-- {
		chW[f] = w
		w *= chLen
	}

	// Decompose the output row and walk the acc rows inside the
	// componentwise box [0, min(outDig, accLen-1)] in ascending flat
	// order — ascending acc cell, the leading key of packProv.
	var outDig, aDig, limDig, cDig [maxPowerDigits]int32
	rem := outRow
	for f := M - 2; f >= 0; f-- {
		outDig[f] = rem % outLen
		rem /= outLen
	}
	for f := 0; f < M-1; f++ {
		limDig[f] = min(outDig[f], accLen-1)
	}

	for {
		arIdx, sumA := int32(0), int32(0)
		for f := 0; f < M-1; f++ {
			arIdx = arIdx*accLen + aDig[f]
			sumA += aDig[f]
		}
		aRuns := st.inRuns[st.inOff[arIdx]:st.inOff[arIdx+1]]
		if len(aRuns) != 0 {
			// Child digits for the no-place and mode-M options; a mode-m
			// place reduces digit m-1 by one, which may repair a single
			// out-of-range digit.
			raw, sumC, bad := int32(0), int32(0), int32(-1)
			for f := 0; f < M-1; f++ {
				c := outDig[f] - aDig[f]
				cDig[f] = c
				raw += c * chW[f]
				sumC += c
				if c >= chLen {
					if bad == -1 {
						bad = int32(f)
					} else {
						bad = -2
					}
				}
			}
			if p := st.lazyProvRow(aRuns, arIdx, sumA, k, vstar, raw, sumC, bad, cDig[:M-1], chW[:M-1], caps, M); p != noProv {
				return p
			}
		}
		f := M - 2
		for ; f >= 0; f-- {
			if aDig[f] < limDig[f] {
				aDig[f]++
				break
			}
			aDig[f] = 0
		}
		if f < 0 {
			return noProv
		}
	}
}

// lazyProvRow scans one acc row's runs, in ascending cell order, for
// the first run holding a provenance candidate of the target cell, and
// returns the minimal candidate of that run (later runs only produce
// larger packed triples).
func (st *pStep) lazyProvRow(aRuns []bpRun, arIdx, sumA, k int32, vstar int64, raw, sumC, bad int32, cDig []int32, chW []int32, caps []int, M int) uint64 {
	accLen, chLen := st.accLen, st.chLen
	accEff := accLen - sumA
	aFlatBase := int(arIdx) * int(accLen)
	for p := range aRuns {
		aS := aRuns[p].start
		aE := accEff
		if p+1 < len(aRuns) {
			aE = aRuns[p+1].start
		}
		a := aRuns[p].val
		best := noProv

		// No-place: a child cell with value exactly vstar - a at c = k-i.
		if bad == -1 && a <= vstar {
			cRuns := st.chRuns[st.chOff[raw]:st.chOff[raw+1]]
			chEff := chLen - sumC
			target := vstar - a
			for q := range cRuns {
				if cRuns[q].val > target {
					continue
				}
				if cRuns[q].val == target {
					cl := cRuns[q].start
					cr := chEff - 1
					if q+1 < len(cRuns) {
						cr = cRuns[q+1].start - 1
					}
					iMin := max(aS, k-cr)
					if iMin < aE && iMin <= k-cl {
						best = min(best, packProv(aFlatBase+int(iMin), int(raw)*int(chLen)+int(k-iMin), 0))
					}
				}
				break
			}
		}

		if a == vstar {
			// Mode-M place: any feasible child cell at c = k-1-i.
			if bad == -1 {
				cRuns := st.chRuns[st.chOff[raw]:st.chOff[raw+1]]
				if len(cRuns) != 0 {
					chEff := chLen - sumC
					cFirst, cLast := cRuns[0].start, chEff-1
					iMin := max(aS, k-1-cLast)
					if iMin < aE && iMin <= k-1-cFirst {
						best = min(best, packProv(aFlatBase+int(iMin), int(raw)*int(chLen)+int(k-1-iMin), uint8(M)))
					}
				}
			}
			// Mode-m place (m < M): child cells mode m can carry, at
			// c = k-i, in the row with digit m-1 reduced by one.
			for m := 1; m < M; m++ {
				ok := cDig[m-1] >= 1 && (bad == -1 || (bad == int32(m-1) && cDig[m-1] == chLen))
				if !ok {
					continue
				}
				crIdx := raw - chW[m-1]
				cRuns := st.chRuns[st.chOff[crIdx]:st.chOff[crIdx+1]]
				sm := int32(-1)
				for _, run := range cRuns {
					if run.val <= int64(caps[m-1]) {
						sm = run.start
						break
					}
				}
				if sm < 0 {
					continue
				}
				chEff := chLen - (sumC - 1)
				iMin := max(aS, k-(chEff-1))
				if iMin < aE && iMin <= k-sm {
					best = min(best, packProv(aFlatBase+int(iMin), int(crIdx)*int(chLen)+int(k-iMin), uint8(m)))
				}
			}
		}

		if best != noProv {
			return best
		}
	}
	return noProv
}
