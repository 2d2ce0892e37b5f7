#include "mobility/grid.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mvsim::mobility {

MobilityGrid::MobilityGrid(std::uint32_t width, std::uint32_t height, PhoneId phone_count)
    : width_(width), height_(height) {
  if (width == 0 || height == 0) {
    throw std::invalid_argument("MobilityGrid: dimensions must be positive");
  }
  const std::uint64_t cells = std::uint64_t{width} * height;
  if (cells >= kCellLimit) {
    throw std::invalid_argument("MobilityGrid: a " + std::to_string(width) + "x" +
                                std::to_string(height) + " grid has 2^32 or more cells");
  }
  cells_.resize(cells);
  cell_of_.resize(phone_count, kNowhere);
  slot_of_.resize(phone_count, 0);
  neighbours_.resize(cells * 4);
  CellId* next = neighbours_.data();
  for (std::uint32_t y = 0; y < height; ++y) {
    const CellId row = y * width;
    const CellId up = (y + 1 == height ? 0 : y + 1) * width;
    const CellId down = (y == 0 ? height - 1 : y - 1) * width;
    for (std::uint32_t x = 0; x < width; ++x) {
      *next++ = row + (x + 1 == width ? 0 : x + 1);
      *next++ = row + (x == 0 ? width - 1 : x - 1);
      *next++ = up + x;
      *next++ = down + x;
    }
  }
}

void MobilityGrid::place(PhoneId phone, CellId cell) {
  if (phone >= phone_count()) {
    throw std::out_of_range("MobilityGrid::place: phone " + std::to_string(phone));
  }
  if (cell >= cell_count()) {
    throw std::out_of_range("MobilityGrid::place: cell " + std::to_string(cell));
  }
  if (cell_of_[phone] != kNowhere) {
    throw std::logic_error("MobilityGrid::place: phone " + std::to_string(phone) +
                           " already placed");
  }
  insert_into_cell(phone, cell);
}

void MobilityGrid::place_all_uniform(rng::Stream& stream) {
  for (PhoneId p = 0; p < phone_count(); ++p) {
    place(p, static_cast<CellId>(stream.uniform_index(cell_count())));
  }
}

void MobilityGrid::move_to_random_neighbour(PhoneId phone, rng::Stream& stream) {
  const CellId cell = cell_of(phone);
  const CellId next = neighbours_[std::size_t{cell} * 4 + stream.uniform_index(4)];
  remove_from_cell(phone);
  insert_into_cell(phone, next);
}

CellId MobilityGrid::cell_of(PhoneId phone) const {
  if (phone >= phone_count() || cell_of_[phone] == kNowhere) throw_not_placed(phone);
  return cell_of_[phone];
}

void MobilityGrid::throw_not_placed(PhoneId phone) {
  throw std::out_of_range("MobilityGrid::cell_of: phone " + std::to_string(phone) +
                          " not placed");
}

std::span<const PhoneId> MobilityGrid::phones_in(CellId cell) const {
  if (cell >= cell_count()) {
    throw std::out_of_range("MobilityGrid::phones_in: cell " + std::to_string(cell));
  }
  return cells_[cell];
}

bool MobilityGrid::sample_co_located(PhoneId phone, rng::Stream& stream, PhoneId& out) const {
  const auto& cell = cells_[cell_of(phone)];
  if (cell.size() < 2) return false;
  // Rejection over the cell: expected < 2 draws even in tiny cells.
  for (;;) {
    PhoneId candidate = cell[static_cast<std::size_t>(stream.uniform_index(cell.size()))];
    if (candidate != phone) {
      out = candidate;
      return true;
    }
  }
}

double MobilityGrid::mean_occupancy() const {
  return static_cast<double>(phone_count()) / static_cast<double>(cell_count());
}

std::size_t MobilityGrid::max_occupancy() const {
  std::size_t best = 0;
  for (const auto& cell : cells_) best = std::max(best, cell.size());
  return best;
}

void MobilityGrid::remove_from_cell(PhoneId phone) {
  CellId cell = cell_of_[phone];
  std::vector<PhoneId>& occupants = cells_[cell];
  std::uint32_t slot = slot_of_[phone];
  // Swap-remove, updating the displaced phone's slot.
  occupants[slot] = occupants.back();
  slot_of_[occupants[slot]] = slot;
  occupants.pop_back();
  cell_of_[phone] = kNowhere;
}

void MobilityGrid::insert_into_cell(PhoneId phone, CellId cell) {
  cells_[cell].push_back(phone);
  cell_of_[phone] = cell;
  slot_of_[phone] = static_cast<std::uint32_t>(cells_[cell].size() - 1);
}

}  // namespace mvsim::mobility
