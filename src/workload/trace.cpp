#include "workload/trace.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/config.hpp"

namespace fairswap::workload {

void TraceRecorder::record(const DownloadRequest& req) {
  requests_.push_back(req);
}

std::string TraceRecorder::to_csv() const {
  std::ostringstream out;
  for (const auto& req : requests_) {
    if (req.is_upload) out << 'u';
    out << req.originator;
    for (const Address c : req.chunks) out << ',' << c.v;
    out << '\n';
  }
  return out.str();
}

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& reason) {
  throw std::invalid_argument("trace line " + std::to_string(line) + ": " +
                              reason);
}

std::uint64_t parse_cell(std::size_t line, const std::string& cell,
                         const char* what) {
  if (cell.empty()) fail(line, std::string("empty ") + what + " cell");
  const auto v = parse_u64(cell);
  if (!v) fail(line, "'" + cell + "' is not an unsigned " + what);
  return *v;
}

}  // namespace

std::vector<DownloadRequest> trace_from_csv(const std::string& csv,
                                            TraceBounds bounds) {
  std::vector<DownloadRequest> out;
  std::istringstream in(csv);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) fail(line_no, "empty line");
    DownloadRequest req;
    std::istringstream cells(line);
    std::string cell;
    bool first = true;
    while (std::getline(cells, cell, ',')) {
      if (first) {
        if (!cell.empty() && cell[0] == 'u') {
          req.is_upload = true;
          cell.erase(0, 1);
        }
        const std::uint64_t v = parse_cell(line_no, cell, "originator");
        // Even unchecked, the value must fit its representation: a
        // silent static_cast truncation would remap the request instead
        // of rejecting it.
        if (v > std::numeric_limits<NodeIndex>::max()) {
          fail(line_no, "originator " + cell + " does not fit NodeIndex");
        }
        if (bounds.node_count != 0 && v >= bounds.node_count) {
          fail(line_no, "originator " + cell + " out of range (node count " +
                            std::to_string(bounds.node_count) + ")");
        }
        req.originator = static_cast<NodeIndex>(v);
        first = false;
      } else {
        const std::uint64_t v = parse_cell(line_no, cell, "chunk address");
        if (v > std::numeric_limits<AddressValue>::max()) {
          fail(line_no,
               "chunk address " + cell + " does not fit an address value");
        }
        if (bounds.address_bits > 0 && bounds.address_bits < 64 &&
            v >= (std::uint64_t{1} << bounds.address_bits)) {
          fail(line_no, "chunk address " + cell + " does not fit a " +
                            std::to_string(bounds.address_bits) +
                            "-bit address space");
        }
        req.chunks.push_back(Address{static_cast<AddressValue>(v)});
      }
    }
    // A trailing comma yields a final empty cell std::getline drops;
    // detect it explicitly so "5,1," is an error, not a 1-chunk request.
    if (!line.empty() && line.back() == ',') fail(line_no, "trailing comma");
    if (first) fail(line_no, "no originator cell");
    if (req.chunks.empty()) {
      fail(line_no, "request has no chunk addresses");
    }
    out.push_back(std::move(req));
  }
  return out;
}

}  // namespace fairswap::workload
