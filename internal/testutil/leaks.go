// Package testutil holds helpers shared across the repo's test suites.
package testutil

import (
	"testing"

	"corep/internal/buffer"
)

// AssertNoLeaks fails the test when the pool still holds pinned
// frames. Every operator and every strategy must return the pool to
// zero pins when it finishes — a leaked pin wedges eviction for
// everyone sharing the shard. Call it (usually via defer) after the
// workload under test has fully completed.
func AssertNoLeaks(t testing.TB, pool *buffer.Pool) {
	t.Helper()
	if pool == nil {
		return
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Errorf("buffer pool leaks %d pinned page(s)", n)
	}
}
