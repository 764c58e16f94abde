// Fixture: every violation below carries an allow() suppression — the file
// must lint clean. Exercises both same-line and previous-line placement.
#include <cstdlib>

int fixture_noise() {
  // vmincqr-lint: allow(no-rand)
  return rand() % 7;
}

void fixture_handoff() {
  std::mutex guard;  // vmincqr-lint: allow(raw-thread)
  consume(guard);
}
