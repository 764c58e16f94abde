// Half of a deliberate header cycle: a.hpp -> b.hpp -> a.hpp, which must
// fire include-cycle exactly once.
#pragma once

#include "cyc/b.hpp"

struct AThing {
  int a = 0;
};

inline int a_value() { return BThing{}.b; }
