package workload

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The op-file format is line-oriented text, one block operation per line:
//
//	W <lba> <content-id>   # write: block content is derived from the id
//	R <lba>                # read
//	T <lba>                # trim
//	# comment / blank      # ignored
//
// Content ids make op files self-contained and deterministic: two writes
// with the same id carry identical bytes, so the overwrite, re-reference
// and dedup behaviour that defines primary storage is in the file itself,
// without shipping payloads. Any batch Serve path replays one.

// ErrFormat is wrapped by every op-file parse error.
var ErrFormat = errors.New("workload: bad op-file format")

// FormatOps serializes an op list to w in the text format.
func FormatOps(w io.Writer, ops []Op) error {
	bw := bufio.NewWriter(w)
	for _, op := range ops {
		var err error
		switch op.Kind {
		case OpWrite:
			_, err = fmt.Fprintf(bw, "W %d %d\n", op.LBA, op.Content)
		case OpRead:
			_, err = fmt.Fprintf(bw, "R %d\n", op.LBA)
		case OpTrim:
			_, err = fmt.Fprintf(bw, "T %d\n", op.LBA)
		default:
			err = fmt.Errorf("workload: unknown op %q", op.Kind)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseOps parses a text op file.
func ParseOps(r io.Reader) ([]Op, error) {
	var ops []Op
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		op, err := parseOp(strings.Fields(text))
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, line, err)
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ops, nil
}

func parseOp(fields []string) (Op, error) {
	if len(fields) == 0 {
		return Op{}, errors.New("empty")
	}
	var op Op
	switch fields[0] {
	case "W":
		if len(fields) != 3 {
			return op, errors.New("write needs lba and content id")
		}
		op.Kind = OpWrite
		lba, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return op, err
		}
		cid, err := strconv.ParseInt(fields[2], 10, 32)
		if err != nil {
			return op, err
		}
		op.LBA, op.Content = lba, int32(cid)
	case "R", "T":
		if len(fields) != 2 {
			return op, errors.New("read/trim needs lba")
		}
		op.Kind = OpKind(fields[0][0])
		lba, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return op, err
		}
		op.LBA = lba
	default:
		return op, fmt.Errorf("unknown op %q", fields[0])
	}
	if op.LBA < 0 {
		return op, errors.New("negative lba")
	}
	return op, nil
}
