package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// layers are the internal packages a packet crosses; each gets a
// <layer>.cpu_share in the traced run.
var layers = []string{"sim", "ethernet", "ipnet", "packet", "wire", "core", "window", "cluster", "metrics", "live"}

// otherPkgs are the internal packages deliberately charged to "other":
// harnesses, generators and set-up code that no packet crosses.
var otherPkgs = []string{"check", "exp", "faults", "order", "rng", "session", "stats", "topo", "trace", "unicast", "workload"}

// shareBuckets are the cpu_share buckets besides the layers: the
// benchmark's own code, internal packages outside the layers, and
// samples with no repository frame at all.
var shareBuckets = []string{"bench", "other", "runtime"}

const internalPrefix = "rmcast/internal/"

// bucketOf classifies one profiled function. ok is false for a function
// outside the repository (standard library, runtime), which is charged
// to the nearest repository frame that called it. pkg names an internal
// package that neither layers nor otherPkgs lists.
func bucketOf(fn string) (bucket, unmapped string, ok bool) {
	switch {
	case strings.HasPrefix(fn, internalPrefix):
		pkg := fn[len(internalPrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range layers {
			if pkg == l {
				return l, "", true
			}
		}
		for _, o := range otherPkgs {
			if pkg == o {
				return "other", "", true
			}
		}
		return "other", pkg, true
	case strings.HasPrefix(fn, "main."):
		return "bench", "", true
	case strings.HasPrefix(fn, "rmcast."):
		return "other", "", true
	}
	return "", "", false
}

// cpuShares charges every profile sample to the innermost repository
// frame on its stack and returns each bucket's share of the CPU time,
// plus the internal packages no bucket maps. Shares sum to 1.
func cpuShares(prof []byte) (map[string]float64, []string, error) {
	p, err := parseProfile(prof)
	if err != nil {
		return nil, nil, err
	}
	weights := map[string]int64{}
	unmapped := map[string]bool{}
	var total int64
	for _, s := range p.samples {
		owner := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				b, pkg, ok := bucketOf(p.funcName(fid))
				if !ok {
					continue
				}
				if pkg != "" {
					unmapped[pkg] = true
				}
				owner = b
				break stack
			}
		}
		weights[owner] += s.value
		total += s.value
	}
	shares := map[string]float64{}
	for _, b := range append(append([]string(nil), layers...), shareBuckets...) {
		shares[b] = 0
	}
	for b, w := range weights {
		shares[b] = ratio(float64(w), float64(total))
	}
	var um []string
	for pkg := range unmapped {
		um = append(um, pkg)
	}
	sort.Strings(um)
	return shares, um, nil
}

// profile is the part of a pprof profile the attribution reads.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location → functions, innermost first
	funcs    map[uint64]int64    // function → name's string index
	strs     []string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

func (p *profile) funcName(id uint64) string {
	if i, ok := p.funcs[id]; ok && i >= 0 && int(i) < len(p.strs) {
		return p.strs[i]
	}
	return ""
}

// parseProfile decodes the gzipped protobuf runtime/pprof writes; only
// samples, locations, functions and the string table are kept.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = eachField(raw, func(num, wt int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := eachField(data, func(num, wt int, v uint64, data []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendUints(s.locs, wt, v, data)
				case 2:
					vals, err = appendUints(vals, wt, v, data)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(data, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(data, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = name
		case 6:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

var errProto = errors.New("malformed protobuf")

// eachField walks the fields of one protobuf message.
func eachField(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst []uint64, wt int, v uint64, data []byte) ([]uint64, error) {
	if wt != 2 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}
