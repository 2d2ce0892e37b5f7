#include "util/sim_time.h"

#include <cmath>
#include <cstdio>
#include <ostream>

namespace mvsim {

std::string SimTime::to_string() const {
  if (!is_finite()) return minutes_ > 0 ? "+inf" : "-inf";
  char buf[64];
  if (std::abs(minutes_) >= 24.0 * 60.0) {
    std::snprintf(buf, sizeof buf, "%.2f d", to_days());
  } else if (std::abs(minutes_) >= 60.0) {
    std::snprintf(buf, sizeof buf, "%.2f h", to_hours());
  } else {
    std::snprintf(buf, sizeof buf, "%.2f min", minutes_);
  }
  return buf;
}

std::ostream& operator<<(std::ostream& out, SimTime time) { return out << time.to_string(); }

}  // namespace mvsim
