// Cell-grid occupancy model for proximity (Bluetooth) propagation.
//
// The paper's future work (§6) points at viruses "that spread using
// the Bluetooth interface on a phone". Bluetooth only reaches phones
// within radio range, so propagation is governed by physical
// co-location. MobilityGrid discretizes space into a torus of cells —
// one cell ~ one Bluetooth radio neighbourhood (a train car, a café) —
// and maintains which phones currently occupy each cell, with uniform
// sampling of co-located phones.
//
// A move costs one uniform_index(4) (a mask of one raw word), one load
// from a neighbour table and a swap-remove plus push_back on the two
// cells' occupant vectors; no division. The constructor precomputes the
// table, four CellIds per cell in the order +x, -x, +y, -y with torus
// wrap: 16 B per cell next to the 24 B per cell of the occupant vector
// heads, 4 KiB on the 16x16 default.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/message.h"
#include "rng/stream.h"

namespace mvsim::mobility {

using net::PhoneId;

/// Index of a grid cell (row-major).
using CellId = std::uint32_t;

/// A grid's cell count must stay below this, so that every cell has a
/// CellId.
inline constexpr std::uint64_t kCellLimit = std::uint64_t{1} << 32;

class MobilityGrid {
 public:
  /// A `width x height` torus; phones are placed via place(). Throws
  /// std::invalid_argument unless 1 <= width * height < kCellLimit.
  MobilityGrid(std::uint32_t width, std::uint32_t height, PhoneId phone_count);

  [[nodiscard]] std::uint32_t width() const { return width_; }
  [[nodiscard]] std::uint32_t height() const { return height_; }
  [[nodiscard]] std::uint32_t cell_count() const { return width_ * height_; }
  [[nodiscard]] PhoneId phone_count() const { return static_cast<PhoneId>(cell_of_.size()); }

  /// Put a phone into a cell (initial placement). A phone may be
  /// placed only once; use move() afterwards.
  void place(PhoneId phone, CellId cell);

  /// Uniformly random initial placement of every phone.
  void place_all_uniform(rng::Stream& stream);

  /// Move a phone to an adjacent cell (4-neighbourhood, torus wrap),
  /// chosen uniformly at random.
  void move_to_random_neighbour(PhoneId phone, rng::Stream& stream);

  [[nodiscard]] CellId cell_of(PhoneId phone) const;
  [[nodiscard]] std::span<const PhoneId> phones_in(CellId cell) const;
  [[nodiscard]] std::size_t occupancy(CellId cell) const { return cells_[cell].size(); }

  /// A uniformly random phone sharing `phone`'s cell, excluding
  /// `phone` itself; returns false if the phone is alone.
  [[nodiscard]] bool sample_co_located(PhoneId phone, rng::Stream& stream, PhoneId& out) const;

  /// Mean/max phones per cell (for tests and diagnostics).
  [[nodiscard]] double mean_occupancy() const;
  [[nodiscard]] std::size_t max_occupancy() const;

 private:
  void remove_from_cell(PhoneId phone);
  void insert_into_cell(PhoneId phone, CellId cell);
  [[noreturn]] static void throw_not_placed(PhoneId phone);

  std::uint32_t width_;
  std::uint32_t height_;
  std::vector<std::vector<PhoneId>> cells_;   // phones per cell
  std::vector<CellId> cell_of_;               // current cell per phone
  std::vector<std::uint32_t> slot_of_;        // index within the cell vector
  std::vector<CellId> neighbours_;            // [cell * 4 + dir]: +x, -x, +y, -y
  static constexpr CellId kNowhere = ~0U;
};

}  // namespace mvsim::mobility
