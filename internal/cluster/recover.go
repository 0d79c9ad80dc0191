package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
)

// Replay-on-start: OpenJournal feeds the journal file through
// replayJournal, which folds the record stream into the set of sweeps
// that were submitted but never reached a terminal state. Those are the
// sweeps a restarted coordinator must resume.

// RecoveredSweep is one incomplete sweep reconstructed from the journal:
// its id and the verbatim grid spec it was submitted with. Restoring it
// (service.Restore) re-runs the grid; the dispatch cache pass resolves
// every cell whose result already reached the store by key, so only
// genuinely unfinished cells are leased out again.
type RecoveredSweep struct {
	ID   string
	Spec json.RawMessage
}

// replayPath replays the journal at path; a missing file is an empty
// journal, not an error.
func replayPath(path string) ([]RecoveredSweep, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return replayJournal(f)
}

// maxJournalLine bounds one journal record; specs are capped well below
// this by the service intake limit.
const maxJournalLine = 4 << 20

// replayJournal folds a journal record stream into the sweeps that were
// submitted and never reached done, in submission order. Undecodable
// lines (a torn tail from a crash mid-append, or any corruption) are
// skipped: recovery prefers resuming with what decodes over refusing to
// start. So are record types other than submit and done, which is how the
// lease and cell records of journals written by older builds replay.
func replayJournal(r io.Reader) ([]RecoveredSweep, error) {
	live := make(map[string]json.RawMessage)
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxJournalLine)
	for sc.Scan() {
		var rec journalRecord
		if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Sweep == "" {
			continue
		}
		switch rec.Type {
		case "submit":
			if _, dup := live[rec.Sweep]; dup || len(rec.Spec) == 0 {
				continue
			}
			live[rec.Sweep] = append(json.RawMessage(nil), rec.Spec...)
			order = append(order, rec.Sweep)
		case "done":
			delete(live, rec.Sweep)
		}
	}
	// An over-long or unterminated final line is a torn tail, not a
	// reason to refuse recovery of everything before it.
	if err := sc.Err(); err != nil && !errors.Is(err, bufio.ErrTooLong) {
		return nil, err
	}
	var out []RecoveredSweep
	for _, id := range order {
		if spec, ok := live[id]; ok {
			out = append(out, RecoveredSweep{ID: id, Spec: spec})
			delete(live, id) // a sweep submitted again after done is listed once
		}
	}
	return out, nil
}
