package server

import (
	"bufio"
	"encoding/json"
	"net/http"

	"fxnet/internal/catalog"
	"fxnet/internal/dsp"
	"fxnet/internal/trace"
)

// streamChunk is the flush granularity of the NDJSON streamers, matched
// to the collector's columnar chunk size order: the response is written
// and flushed chunk by chunk, so a million-packet trace crosses the wire
// in constant server memory instead of being materialized as one
// response body.
const streamChunk = 8192

// traceHeaderJSON is the first NDJSON line of a trace stream.
type traceHeaderJSON struct {
	Hosts   []string          `json:"hosts"`
	Meta    map[string]string `json:"meta"`
	Marks   []traceMarkJSON   `json:"marks,omitempty"`
	Packets int               `json:"packets"`
}

type traceMarkJSON struct {
	T     float64 `json:"t"`
	Label string  `json:"label"`
}

// tracePacketJSON is one packet line of a trace stream.
type tracePacketJSON struct {
	T     float64 `json:"t"`
	Size  int     `json:"size"`
	Src   int     `json:"src"`
	Dst   int     `json:"dst"`
	Proto string  `json:"proto"`
	Flags int     `json:"flags"`
	Sport int     `json:"sport"`
	Dport int     `json:"dport"`
}

// flushIfPossible flushes w's buffered writer and then the HTTP response
// so the client sees complete NDJSON chunks as they are produced
// (Server-Sent-Events-style incremental delivery).
func flushIfPossible(bw *bufio.Writer, w http.ResponseWriter) {
	bw.Flush()
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// streamTraceNDJSON writes a header line and one line per packet,
// flushing every streamChunk packets.
func streamTraceNDJSON(w http.ResponseWriter, tr *trace.Trace) error {
	w.Header().Set("Content-Type", "application/x-ndjson")
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	head := traceHeaderJSON{Hosts: tr.Hosts, Meta: tr.Meta, Packets: tr.Len()}
	for _, m := range tr.Marks {
		head.Marks = append(head.Marks, traceMarkJSON{T: m.Time.Seconds(), Label: m.Label})
	}
	if err := enc.Encode(head); err != nil {
		return err
	}
	for i, p := range tr.Packets {
		if err := enc.Encode(tracePacketJSON{
			T:     p.Time.Seconds(),
			Size:  int(p.Size),
			Src:   int(p.Src),
			Dst:   int(p.Dst),
			Proto: p.Proto.String(),
			Flags: int(p.Flags),
			Sport: int(p.SrcPort),
			Dport: int(p.DstPort),
		}); err != nil {
			return err
		}
		if (i+1)%streamChunk == 0 {
			flushIfPossible(bw, w)
		}
	}
	flushIfPossible(bw, w)
	return nil
}

// spectrumHeaderJSON is the first NDJSON line of a spectrum stream.
type spectrumHeaderJSON struct {
	Program string            `json:"program"`
	Kind    string            `json:"kind"` // "aggregate" or "connection"
	Bins    int               `json:"bins"`
	DF      catalog.JSONFloat `json:"df"`
	DT      catalog.JSONFloat `json:"dt"`
	N       int               `json:"n"`
}

type spectrumBinJSON struct {
	Freq  catalog.JSONFloat `json:"freq"`
	Power catalog.JSONFloat `json:"power"`
}

// streamSpectrumNDJSON writes a header line and one line per frequency
// bin, flushing every streamChunk bins.
func streamSpectrumNDJSON(w http.ResponseWriter, program, kind string, s *dsp.Spectrum) error {
	w.Header().Set("Content-Type", "application/x-ndjson")
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	head := spectrumHeaderJSON{
		Program: program, Kind: kind, Bins: len(s.Freq),
		DF: catalog.JSONFloat(s.DF), DT: catalog.JSONFloat(s.DT), N: s.N,
	}
	if err := enc.Encode(head); err != nil {
		return err
	}
	for i := range s.Freq {
		if err := enc.Encode(spectrumBinJSON{
			Freq:  catalog.JSONFloat(s.Freq[i]),
			Power: catalog.JSONFloat(s.Power[i]),
		}); err != nil {
			return err
		}
		if (i+1)%streamChunk == 0 {
			flushIfPossible(bw, w)
		}
	}
	flushIfPossible(bw, w)
	return nil
}
