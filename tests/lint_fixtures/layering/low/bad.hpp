// Layer violation: `low` has no edge to `high` in layers.toml, so this
// include must fire layer-violation.
#pragma once

#include "high/top.hpp"

inline int bad_value() { return TopThing{}.level; }
