package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"taxilight/internal/core"
	"taxilight/internal/mapmatch"
)

// A checkpoint is a full snapshot of engine state — every published
// estimate plus every scheduling-change monitor's fixed-size state —
// written atomically (temp file + rename) and named by the WAL sequence
// number it covers:
//
//	ckpt-%016x.ck  =  | magic "TLCKPT02" | u32 len | u32 CRC-32C | JSON |
//
// Recovery loads the newest checkpoint whose CRC verifies and replays
// only WAL records with Seq > checkpoint.LastSeq, for their estimates
// and the clock; corrupt checkpoints, and those of another format, are
// skipped in favour of older ones, so a crash during checkpointing costs
// nothing but replay time.

const (
	ckptMagic  = "TLCKPT02"
	ckptPrefix = "ckpt-"
	ckptSuffix = ".ck"
)

// checkpointDoc is the JSON payload of one checkpoint file.
type checkpointDoc struct {
	// LastSeq is the newest WAL sequence number reflected in the
	// snapshot; recovery replays strictly-newer records on top.
	LastSeq uint64 `json:"last_seq"`
	// Now is the stream clock at snapshot time, seconds.
	Now float64 `json:"now_s"`
	// Approaches holds every published approach.
	Approaches []checkpointApproach `json:"approaches"`
}

// checkpointApproach is one approach's durable state in a checkpoint.
type checkpointApproach struct {
	Estimate Record    `json:"estimate"`
	Monitor  *monitorJ `json:"monitor,omitempty"`
}

// monitorJ is core.MonitorState with explicit JSON names; a field added
// to either fails to build until both have it and ckptMagic moves on.
type monitorJ struct {
	Held    int                `json:"held"`
	Last    [2]core.CyclePoint `json:"last"`
	Plateau float64            `json:"plateau_s"`
	Run     [2]float64         `json:"run_s"`
	RunLen  int                `json:"run_len"`
	RunT    float64            `json:"run_t_s"`
	Pending bool               `json:"pending"`
}

func checkpointPath(dir string, lastSeq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", ckptPrefix, lastSeq, ckptSuffix))
}

func parseCheckpointSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(hex, "%016x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// listCheckpoints returns checkpoint file paths in dir, newest first.
func listCheckpoints(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		if _, ok := parseCheckpointSeq(ent.Name()); ok {
			names = append(names, ent.Name())
		}
	}
	// Names embed zero-padded hex seq, so lexicographic order is seq
	// order; reverse for newest-first.
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	paths := make([]string, len(names))
	for i, n := range names {
		paths[i] = filepath.Join(dir, n)
	}
	return paths, nil
}

// docFromState converts exported engine state into the checkpoint
// payload, sorted by key for deterministic bytes.
func docFromState(st core.EngineState, lastSeq uint64) checkpointDoc {
	doc := checkpointDoc{LastSeq: lastSeq, Now: st.Now}
	for k, as := range st.Approaches {
		res := as.Result
		res.Key = k
		rec, ok := FromResult(res)
		if !ok {
			continue
		}
		ca := checkpointApproach{Estimate: rec}
		if m := monitorJ(as.Monitor); as.Monitor != (core.MonitorState{}) {
			ca.Monitor = &m
		}
		doc.Approaches = append(doc.Approaches, ca)
	}
	sort.Slice(doc.Approaches, func(i, j int) bool {
		a, b := doc.Approaches[i].Estimate, doc.Approaches[j].Estimate
		if a.Light != b.Light {
			return a.Light < b.Light
		}
		return a.Approach < b.Approach
	})
	return doc
}

// stateFromDoc converts a checkpoint payload back to engine state. An
// estimate docFromState would not write, one with no cycle, is skipped.
func stateFromDoc(doc checkpointDoc) core.EngineState {
	st := core.EngineState{Now: doc.Now, Approaches: map[mapmatch.Key]core.ApproachState{}}
	for _, ca := range doc.Approaches {
		if ca.Estimate.Cycle <= 0 {
			continue
		}
		as := core.ApproachState{Result: ca.Estimate.Result()}
		if ca.Monitor != nil {
			as.Monitor = core.MonitorState(*ca.Monitor)
		}
		st.Approaches[ca.Estimate.Key()] = as
	}
	return st
}

// writeCheckpoint atomically writes one checkpoint file and fsyncs it
// (and the directory) before the rename is considered durable.
func writeCheckpoint(dir string, doc checkpointDoc) (path string, err error) {
	payload, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("store: marshal checkpoint: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "ckpt-*.tmp")
	if err != nil {
		return "", err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	var hdr [len(ckptMagic) + frameHeader]byte
	copy(hdr[:], ckptMagic)
	binary.LittleEndian.PutUint32(hdr[len(ckptMagic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[len(ckptMagic)+4:], crc32.Checksum(payload, castagnoli))
	if _, err = tmp.Write(hdr[:]); err != nil {
		return "", err
	}
	if _, err = tmp.Write(payload); err != nil {
		return "", err
	}
	if err = tmp.Sync(); err != nil {
		return "", err
	}
	if err = tmp.Close(); err != nil {
		return "", err
	}
	path = checkpointPath(dir, doc.LastSeq)
	if err = os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	return path, syncDir(dir)
}

// readCheckpoint loads and verifies one checkpoint file.
func readCheckpoint(path string) (checkpointDoc, error) {
	var doc checkpointDoc
	f, err := os.Open(path)
	if err != nil {
		return doc, err
	}
	defer f.Close()
	var hdr [len(ckptMagic) + frameHeader]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return doc, fmt.Errorf("store: checkpoint %s: short header", filepath.Base(path))
	}
	if string(hdr[:len(ckptMagic)]) != ckptMagic {
		return doc, fmt.Errorf("store: checkpoint %s: bad magic", filepath.Base(path))
	}
	n := binary.LittleEndian.Uint32(hdr[len(ckptMagic):])
	want := binary.LittleEndian.Uint32(hdr[len(ckptMagic)+4:])
	if n > 1<<30 {
		return doc, fmt.Errorf("store: checkpoint %s: absurd payload size %d", filepath.Base(path), n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(f, payload); err != nil {
		return doc, fmt.Errorf("store: checkpoint %s: short payload", filepath.Base(path))
	}
	if crc32.Checksum(payload, castagnoli) != want {
		return doc, fmt.Errorf("store: checkpoint %s: CRC mismatch", filepath.Base(path))
	}
	if err := json.Unmarshal(payload, &doc); err != nil {
		return doc, fmt.Errorf("store: checkpoint %s: %w", filepath.Base(path), err)
	}
	return doc, nil
}

// syncDir fsyncs a directory so renames/creates inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
