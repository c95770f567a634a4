package server

import (
	"fmt"

	"apcache/internal/engine"
	"apcache/internal/wal"
)

// Open builds a server like New and, when cfg.WALDir is set, attaches its
// write-ahead journal: state recorded by a previous process under that
// directory — every hosted value and the learned widths of its last
// checkpoint — is recovered first, with a torn or corrupted log tail truncated
// rather than rejected, and then folded into fresh per-shard log files before
// the server accepts traffic (the engine's recovery and first checkpoint).
// Subscriptions are not journaled: they name ephemeral connection IDs, and
// reconnecting clients replay their own — landing on controllers seeded at
// the recovered widths.
//
// Like New, Open panics on invalid configuration; errors are reserved for
// the journal (unreadable directory, failed recovery rewrite).
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if cfg.WALDir == "" {
		return s, nil
	}
	err := s.eng.Attach(engine.Journal{
		Log: wal.Options{
			Dir:      cfg.WALDir,
			Policy:   cfg.WALFsync,
			Interval: cfg.WALFsyncInterval,
			FS:       cfg.WALFS,
		},
		Broken: func(err error) {
			s.logf("server: wal: durability broken (serving continues from memory): %v", err)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("server: wal: %w", err)
	}
	return s, nil
}

// LearnedWidth reports the last width learned for key — the precision a
// subscription created now would start at on a durable server. ok is false
// for keys with none (or on a non-durable server).
func (s *Server) LearnedWidth(key int) (float64, bool) {
	sh := s.eng.For(key)
	sh.Mu.Lock()
	defer sh.Mu.Unlock()
	return sh.LearnedWidth(key)
}
