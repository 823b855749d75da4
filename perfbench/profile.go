package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// shareLayers are the layers CPU samples are attributed to. A sample
// belongs to the innermost anton3/internal/<pkg> frame on its stack (so
// math.Round called from md counts as md); internal packages not listed
// count as "other", and samples with no internal frame (the Go runtime,
// GC, and this benchmark's own bookkeeping) as "runtime". The shares sum
// to one. Samples in the reference kernel (calib.go) are left out: it is
// the benchmark's yardstick, not the simulator's work. cpu_share.sim_lineage
// is an overlay, not part of that sum: the samples with the kernel's
// lineage heap refill or tie compare anywhere on the stack.
var shareLayers = []string{"sim", "machine", "packet", "serdes", "route", "md", "inz", "pcache", "traffic", "flow", "synth", "runtime", "other"}

var lineageFrames = []string{"anton3/internal/sim.(*Kernel).sinkRootLineage", "anton3/internal/sim.(*Kernel).tieBefore"}

const (
	internalPrefix = "anton3/internal/"
	refFrame       = "main.(*refKernel).run"
)

// cpuShares folds a runtime/pprof CPU profile into per-layer sample
// shares.
func cpuShares(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	known := map[string]bool{}
	for _, l := range shareLayers {
		known[l] = true
	}
	counts := map[string]float64{}
	var total, lineage float64
	for _, s := range p.samples {
		layer, inLineage, inRef := "runtime", false, false
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				name := p.strings[p.funcName[fn]]
				inRef = inRef || name == refFrame
				for _, lf := range lineageFrames {
					inLineage = inLineage || name == lf
				}
				if layer == "runtime" && strings.HasPrefix(name, internalPrefix) {
					pkg, _, _ := strings.Cut(strings.TrimPrefix(name, internalPrefix), ".")
					layer = pkg
					if !known[layer] {
						layer = "other"
					}
				}
			}
		}
		if inRef {
			continue
		}
		counts[layer] += s.n
		total += s.n
		if inLineage {
			lineage += s.n
		}
	}
	shares := map[string]float64{"cpu_share.sim_lineage": ratio(lineage, total)}
	for _, l := range shareLayers {
		shares["cpu_share."+l] = ratio(counts[l], total)
	}
	return shares, nil
}

// profile is the part of a profile.proto message the folding needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs []uint64 // leaf first
	n    float64  // sample count
}

// parseProfile decodes the fields of github.com/google/pprof's
// profile.proto used here: Profile.sample (2), .location (4), .function
// (5) and .string_table (6); Sample.location_id (1) and .value (2);
// Location.id (1) and .line (4); Line.function_id (1); Function.id (1)
// and .name (2).
func parseProfile(data []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			nv := 0
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return varints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					// The first value of a CPU sample is its sample count.
					return varints(v, b, func(x uint64) {
						if nv == 0 {
							s.n = float64(x)
						}
						nv++
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

// fields walks a protobuf message, calling fn with each field's number and
// either its varint value or its length-delimited bytes.
func fields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		data = data[n:]
		num := int(key >> 3)
		var err error
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			data = data[n:]
			err = fn(num, v, nil)
		case 1:
			if len(data) < 8 {
				return errors.New("short protobuf fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad protobuf length")
			}
			err = fn(num, 0, data[n:n+int(l)])
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short protobuf fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated varint field given either one unpacked value
// (b == nil) or a packed run.
func varints(v uint64, b []byte, yield func(uint64)) error {
	if b == nil {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		yield(x)
		b = b[n:]
	}
	return nil
}
