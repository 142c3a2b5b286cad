package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// rankFile names one rank's trace file inside a directory.
func rankFile(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank-%d.trace", rank))
}

// WriteAll writes one text trace file per rank into dir (created if
// needed), named rank-<i>.trace — the layout the dPerf pipeline hands
// to the simulation stage ("a set of trace files for each execution
// and per participating process").
func WriteAll(dir string, traces []*Trace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range traces {
		if t.Rank != i {
			return fmt.Errorf("trace: slot %d holds rank %d", i, t.Rank)
		}
		if err := writeRankFile(rankFile(dir, i), func(f *os.File) error {
			return t.Write(f)
		}); err != nil {
			return err
		}
	}
	return nil
}

// WriteAllFolded writes one trace file per rank from folded traces,
// in the text format (written from the ops, never materializing the
// flat records) or the compact binary format.
func WriteAllFolded(dir string, fs []*Folded, binary bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, tr := range fs {
		if tr.Rank != i {
			return fmt.Errorf("trace: slot %d holds rank %d", i, tr.Rank)
		}
		if err := writeRankFile(rankFile(dir, i), func(f *os.File) error {
			if binary {
				return tr.WriteBinary(f)
			}
			return WriteText(f, tr.Rank, tr.Of, tr.Ops)
		}); err != nil {
			return err
		}
	}
	return nil
}

func writeRankFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scanRankFiles lists the rank-*.trace files of dir and checks the
// rank numbering is contiguous from 0 with no duplicates (rank-3 vs
// rank-03) and no gaps (a missing rank file would otherwise silently
// truncate the set).
func scanRankFiles(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	seen := make(map[int]string)
	max := -1
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "rank-") || !strings.HasSuffix(name, ".trace") {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, "rank-"), ".trace")
		rank, err := strconv.Atoi(num)
		if err != nil || rank < 0 {
			return 0, fmt.Errorf("trace: %s: bad rank file name %q", dir, name)
		}
		if prev, dup := seen[rank]; dup {
			return 0, fmt.Errorf("trace: %s: duplicate rank %d (%s and %s)", dir, rank, prev, name)
		}
		seen[rank] = name
		if rank > max {
			max = rank
		}
	}
	if len(seen) == 0 {
		return 0, fmt.Errorf("trace: no rank-*.trace files in %s", dir)
	}
	var missing []int
	for i := 0; i <= max; i++ {
		if _, ok := seen[i]; !ok {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		sort.Ints(missing)
		return 0, fmt.Errorf("trace: %s: rank file(s) missing for rank(s) %v (have %d files up to rank %d)",
			dir, missing, len(seen), max)
	}
	return max + 1, nil
}

// LoadFile reads one trace file, auto-detecting the text or binary
// format, and returns it folded (text input is run-length folded).
func LoadFile(path string) (*Folded, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) >= len(Magic) && string(data[:len(Magic)]) == Magic {
		f, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("trace: %s: %w", path, err)
		}
		return f, nil
	}
	t, err := Parse(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return Fold(t), nil
}

// LoadAllFolded reads rank-0.trace .. rank-(n-1).trace from dir
// (text or binary per file), validates the set — contiguous ranks, no
// duplicates, headers agreeing on the total rank count, matching
// send/recv/conv/barrier counts — and returns it folded.
func LoadAllFolded(dir string) ([]*Folded, error) {
	n, err := scanRankFiles(dir)
	if err != nil {
		return nil, err
	}
	fs := make([]*Folded, n)
	for i := 0; i < n; i++ {
		path := rankFile(dir, i)
		f, err := LoadFile(path)
		if err != nil {
			return nil, err
		}
		if f.Rank < 0 {
			f.Rank = i // tolerate headerless files
		}
		// The same labeling rule the single-file and set loaders apply.
		if err := ValidateLabel(i, n, f.Rank, f.Of); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		fs[i] = f
	}
	if err := ValidateFolded(fs); err != nil {
		return nil, err
	}
	return fs, nil
}

// LoadAll reads a directory of per-rank trace files like
// LoadAllFolded and returns the set unfolded.
func LoadAll(dir string) ([]*Trace, error) {
	fs, err := LoadAllFolded(dir)
	if err != nil {
		return nil, err
	}
	traces := make([]*Trace, len(fs))
	for i, f := range fs {
		t, err := f.Unfold()
		if err != nil {
			return nil, fmt.Errorf("trace: %s: %w", rankFile(dir, i), err)
		}
		traces[i] = t
	}
	return traces, nil
}
