package kernels

import (
	"encoding/binary"
	"math"

	"fxnet/internal/fx"
)

const seqTag = 300000

// seqElemBytes is the per-element message body: row (int32), column
// (int32), value (float64) — the O(1)-size messages of the paper's SEQ
// kernel, which with headers lands near the paper's ~90-byte packets.
const seqElemBytes = 16

// seqValue is the datum "read from sequential input" for element (i, j).
func seqValue(i, j, n int) float64 {
	return initValue(i, j, n) * 100
}

// SEQ models Fx's sequential-I/O broadcast pattern: an N×N matrix
// distributed by block rows is initialized element-wise from data
// produced on processor 0, which sends each element to every other
// processor; each processor keeps the elements in its own block. Data
// production is row-granular (one input record per row), which gives the
// traffic its burst-per-row periodicity.
//
// Every rank returns its owned block (rank 0's block is produced
// locally).
func SEQ(w *fx.Worker, p Params) [][]float64 {
	checkRank(w, "seq", 2)
	n := p.N
	lo, hi := fx.BlockRange(n, w.P, w.Rank)
	block := make([][]float64, hi-lo)
	for r := range block {
		block[r] = make([]float64, n)
	}

	// One element's body, rewritten per element: w.Send copies it before
	// it returns (SEQ sends copy-loop messages).
	var body [seqElemBytes]byte
	for it := 0; it < p.Iters; it++ {
		w.Phase("produce-broadcast")
		if w.Rank == 0 {
			for i := 0; i < n; i++ {
				// Produce the row's data (sequential input is slow: the
				// calibrated rate reflects per-element I/O cost).
				w.Compute("seq.produce", float64(n))
				for j := 0; j < n; j++ {
					v := seqValue(i, j, n)
					binary.LittleEndian.PutUint32(body[0:], uint32(i))
					binary.LittleEndian.PutUint32(body[4:], uint32(j))
					binary.LittleEndian.PutUint64(body[8:], math.Float64bits(v))
					for dst := 1; dst < w.P; dst++ {
						w.Send(dst, seqTag, body[:])
					}
					if i >= lo && i < hi {
						block[i-lo][j] = v
					}
				}
			}
		} else {
			for count := 0; count < n*n; count++ {
				body := w.Recv(0, seqTag)
				i := int(binary.LittleEndian.Uint32(body[0:]))
				j := int(binary.LittleEndian.Uint32(body[4:]))
				v := math.Float64frombits(binary.LittleEndian.Uint64(body[8:]))
				if i >= lo && i < hi {
					block[i-lo][j] = v
				}
			}
		}
	}
	return block
}
