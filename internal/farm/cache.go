package farm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"fxnet/internal/core"
	"fxnet/internal/durable"
	"fxnet/internal/ethernet"
	"fxnet/internal/fx"
	"fxnet/internal/sim"
	"fxnet/internal/trace"
)

// cacheMagic heads every full-run cache entry; the trailing digit is the
// format version. Stream (spectrum-level) entries use streamMagic and the
// .fxspec extension, so an analysis-only result can never masquerade as a
// full run with an empty trace.
const (
	cacheMagic  = "FXFARM01"
	streamMagic = "FXSPEC01"
	runExt      = ".fxrun"
	specExt     = ".fxspec"
)

// kindOf maps the stream flag to an entry's extension and magic.
func kindOf(stream bool) (ext, magic string) {
	if stream {
		return specExt, streamMagic
	}
	return runExt, cacheMagic
}

// Cache is an on-disk, content-addressed store of completed runs: one
// file per key holding the run metadata, the characterization JSON, and
// the binary-codec trace, all guarded by a SHA-256 digest.
//
// The cache is corruption-tolerant by construction: a missing, truncated,
// bit-flipped, or otherwise unreadable entry is reported as a miss and
// the run is recomputed — a bad cache can cost time, never correctness.
// A structurally present but undecodable entry is additionally
// quarantined, which makes silent disk rot visible in /metrics.
//
// What is the cache's own is the entry codec and its verification; where
// the bytes live — crash-safe publish, quarantine, census, the key rule —
// is the durable.Store underneath (DESIGN.md §11).
type Cache struct{ st *durable.Store }

// CacheStats is a snapshot of the on-disk census: the published
// .fxrun/.fxspec files, quarantined and temp files excluded.
type CacheStats = durable.Census

// OpenCache opens (creating if needed) a cache directory on the real
// filesystem and takes a census of its published entries.
func OpenCache(dir string) (*Cache, error) { return OpenCacheFS(nil, dir) }

// OpenCacheFS is OpenCache over a filesystem seam; nil is the real one.
func OpenCacheFS(fs durable.FS, dir string) (*Cache, error) {
	st, err := durable.Open(fs, dir, runExt, specExt)
	if err != nil {
		return nil, fmt.Errorf("farm: open cache: %w", err)
	}
	return &Cache{st: st}, nil
}

// Stats reports the entry census.
func (c *Cache) Stats() CacheStats { return c.st.Census(runExt, specExt) }

// Quarantined reports how many corrupt entries this cache has moved to
// its corrupt/ subdirectory.
func (c *Cache) Quarantined() int64 { return c.st.Quarantined(runExt) + c.st.Quarantined(specExt) }

// QuarantinedKinds reports quarantine counts by entry kind.
func (c *Cache) QuarantinedKinds() map[string]int64 {
	return map[string]int64{"run": c.st.Quarantined(runExt), "spec": c.st.Quarantined(specExt)}
}

// StoreFailures counts entries that could not be published (full disk,
// failed fsync, …): each cost a future re-execution, not a result.
func (c *Cache) StoreFailures() int64 { return c.st.Failures() }

// entryMeta is the JSON header of a cache entry: everything a
// core.Result carries besides the trace and the live worker handles.
type entryMeta struct {
	Elapsed  int64          `json:"elapsed_ns"`
	SegStats ethernet.Stats `json:"seg_stats"`
	RepConn  [2]int         `json:"rep_conn"`
	RunErr   *runErrJSON    `json:"run_err,omitempty"`
}

// runErrJSON round-trips a run's fault outcome. The underlying error
// chain cannot survive serialization, so a revived RunError carries the
// rendered message; errors.Is identity against sentinels is lost, which
// cached-result consumers must treat as data, not control flow.
type runErrJSON struct {
	Program string `json:"program"`
	Rank    int    `json:"rank"`
	Phase   string `json:"phase"`
	Msg     string `json:"msg"`
}

// load reads and verifies one entry; an undecodable one is quarantined
// and reported as a miss.
func (c *Cache) load(key string, cfg core.RunConfig, stream bool) (*core.Result, *core.Report, bool) {
	ext, magic := kindOf(stream)
	body, err := c.st.Read(key, ext)
	if err != nil {
		return nil, nil, false
	}
	res, rep, err := decodeEntry(body, cfg, magic)
	if err != nil {
		c.st.Quarantine(key, ext)
		return nil, nil, false
	}
	return res, rep, true
}

// Load retrieves a cached run. ok is false on any miss — absent entry,
// bad magic, digest mismatch, truncation, or undecodable section — and
// the caller recomputes. A loaded Result has no live Workers or Team
// (those are process handles, not measurements); its Config is the
// caller's cfg. The report is recomputed from the trace when the stored
// characterization is absent or damaged.
func (c *Cache) Load(key string, cfg core.RunConfig) (res *core.Result, rep *core.Report, ok bool) {
	res, rep, ok = c.load(key, cfg, false)
	if ok && rep == nil {
		rep = core.Characterize(res)
	}
	return res, rep, ok
}

// LoadStream retrieves a spectrum-level entry for a streaming-analysis
// job: first the .fxspec entry a stream job stored (whose trace is
// metadata-only, so the load touches no packet data at all), then —
// because a full run subsumes an analysis-only one — a .fxrun entry for
// the same key, with its packets dropped so a stream job's result never
// carries a trace. A stream entry without a decodable report is a miss:
// there are no packets to recompute one from.
func (c *Cache) LoadStream(key string, cfg core.RunConfig) (res *core.Result, rep *core.Report, ok bool) {
	if res, rep, ok = c.load(key, cfg, true); ok && rep != nil {
		return res, rep, true
	}
	res, rep, ok = c.Load(key, cfg)
	if !ok {
		return nil, nil, false
	}
	slim := trace.New()
	slim.Meta = res.Trace.Meta
	res.Trace = slim
	return res, rep, true
}

// Store writes a completed run under key through the durable store's
// publish path, so a crashed or interrupted writer can never leave a
// torn entry under the final name.
func (c *Cache) Store(key string, res *core.Result, rep *core.Report) error {
	return c.store(key, res, rep, false)
}

func (c *Cache) store(key string, res *core.Result, rep *core.Report, stream bool) error {
	ext, magic := kindOf(stream)
	body, err := encodeEntry(res, rep, magic)
	if err != nil {
		return err
	}
	if _, err := c.st.Publish(key, ext, durable.Bytes(body)); err != nil {
		return fmt.Errorf("farm: store: %w", err)
	}
	return nil
}

// encodeEntry renders a cache entry:
//
//	magic(8) | sha256(32) | metaLen(4) meta | repLen(4) report | trace
//
// The digest covers every byte after itself. The report section may be
// empty (length 0) when the characterization cannot be marshaled (NaNs
// from degenerate series); Load then recomputes it from the trace.
func encodeEntry(res *core.Result, rep *core.Report, magic string) ([]byte, error) {
	var payload bytes.Buffer
	meta := entryMeta{
		Elapsed:  int64(res.Elapsed),
		SegStats: res.SegStats,
		RepConn:  res.RepConn,
	}
	if res.RunErr != nil {
		meta.RunErr = &runErrJSON{
			Program: res.RunErr.Program,
			Rank:    res.RunErr.Rank,
			Phase:   res.RunErr.Phase,
			Msg:     res.RunErr.Err.Error(),
		}
	}
	metaBytes, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("farm: encode meta: %w", err)
	}
	// A degenerate characterization (NaNs) marshals to nil: the section
	// is empty and Load recomputes it.
	repBytes, _ := MarshalReport(rep)
	writeSection := func(b []byte) {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(b)))
		payload.Write(n[:])
		payload.Write(b)
	}
	writeSection(metaBytes)
	writeSection(repBytes)
	if err := res.Trace.WriteBinary(&payload); err != nil {
		return nil, fmt.Errorf("farm: encode trace: %w", err)
	}

	var out bytes.Buffer
	out.WriteString(magic)
	digest := sha256.Sum256(payload.Bytes())
	out.Write(digest[:])
	out.Write(payload.Bytes())
	return out.Bytes(), nil
}

// decodeEntry parses and verifies a cache entry body.
func decodeEntry(body []byte, cfg core.RunConfig, magic string) (*core.Result, *core.Report, error) {
	headLen := len(magic) + sha256.Size
	if len(body) < headLen || string(body[:len(magic)]) != magic {
		return nil, nil, errors.New("farm: bad cache magic")
	}
	digest := body[len(magic):headLen]
	payload := body[headLen:]
	if sum := sha256.Sum256(payload); !bytes.Equal(digest, sum[:]) {
		return nil, nil, errors.New("farm: cache digest mismatch")
	}
	readSection := func() ([]byte, error) {
		if len(payload) < 4 {
			return nil, io.ErrUnexpectedEOF
		}
		n := binary.LittleEndian.Uint32(payload[:4])
		payload = payload[4:]
		if uint64(n) > uint64(len(payload)) {
			return nil, io.ErrUnexpectedEOF
		}
		b := payload[:n]
		payload = payload[n:]
		return b, nil
	}
	metaBytes, err := readSection()
	if err != nil {
		return nil, nil, err
	}
	var meta entryMeta
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return nil, nil, err
	}
	repBytes, err := readSection()
	if err != nil {
		return nil, nil, err
	}
	var rep *core.Report
	if len(repBytes) > 0 {
		rep, _ = unmarshalReport(repBytes) // nil if damaged: the trace is still good
	}
	tr, err := trace.ReadBinary(bytes.NewReader(payload))
	if err != nil {
		return nil, nil, err
	}
	res := &core.Result{
		Config:   cfg,
		Trace:    tr,
		Elapsed:  sim.Time(meta.Elapsed),
		SegStats: meta.SegStats,
		RepConn:  meta.RepConn,
	}
	if meta.RunErr != nil {
		res.RunErr = &fx.RunError{
			Program: meta.RunErr.Program,
			Rank:    meta.RunErr.Rank,
			Phase:   meta.RunErr.Phase,
			Err:     errors.New(meta.RunErr.Msg),
		}
	}
	return res, rep, nil
}
