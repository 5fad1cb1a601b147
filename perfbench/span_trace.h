// In-memory span recorder for the benchmark's traced run.
//
// A span is one call into a layer: a name, a start and end (seconds since
// the recorder was created, steady clock), and the span that caused it.
// Spans live in a vector until the run ends and are written out in one go,
// so recording costs two clock reads and a push_back per call.
//
// Self time is a span's duration minus the part of its interval that its
// child spans cover.  Children may overlap (trials fanned out over worker
// threads), so coverage is the length of the union of the child intervals,
// clipped to the parent's interval.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace perfbench {

struct span {
    std::string name;
    std::int64_t parent = -1;  ///< index of the causing span; -1 for a root
    double start = 0.0;        ///< seconds since the recorder's origin
    double end = 0.0;
};

class span_recorder {
public:
    /// `run_id` names the workload and repeat every span of this run
    /// belongs to.
    explicit span_recorder(std::string run_id)
        : run_id_(std::move(run_id)), origin_(clock::now()) {}

    /// Seconds since the origin.  Reads only the clock, so worker threads
    /// may call it to time spans they hand back to the recording thread.
    [[nodiscard]] double now() const {
        return std::chrono::duration<double>(clock::now() - origin_).count();
    }

    /// Opens a span starting now; returns its id.
    std::int64_t open(std::string name, std::int64_t parent = -1) {
        spans_.push_back({std::move(name), parent, now(), 0.0});
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }

    void close(std::int64_t id) { spans_[static_cast<std::size_t>(id)].end = now(); }

    /// Records a span timed elsewhere (e.g. on a worker thread).
    void add(std::string name, std::int64_t parent, double start, double end) {
        spans_.push_back({std::move(name), parent, start, end});
    }

    [[nodiscard]] double duration(std::int64_t id) const {
        const span& s = spans_[static_cast<std::size_t>(id)];
        return s.end - s.start;
    }

    /// Self time of every span, indexed like `spans()`.
    [[nodiscard]] std::vector<double> self_seconds() const {
        std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
        for (const span& s : spans_) {
            if (s.parent >= 0) {
                children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
            }
        }
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            self[i] = (spans_[i].end - spans_[i].start) -
                      covered(children[i], spans_[i].start, spans_[i].end);
        }
        return self;
    }

    /// Length of the union of `intervals`, clipped to [lo, hi].
    [[nodiscard]] static double covered(std::vector<std::pair<double, double>> intervals,
                                        double lo, double hi) {
        std::sort(intervals.begin(), intervals.end());
        double total = 0.0;
        double reach = lo;
        for (const auto& [start, end] : intervals) {
            const double from = std::max(start, reach);
            const double to = std::min(end, hi);
            if (to > from) total += to - from;
            reach = std::max(reach, std::min(end, hi));
        }
        return total;
    }

    [[nodiscard]] const std::vector<span>& spans() const noexcept { return spans_; }

    /// Writes every span with its self time as one JSON document.
    void write_json(std::ostream& os) const {
        const auto self = self_seconds();
        plurality::util::json_writer w(os);
        w.begin_object();
        w.key("run").value(run_id_);
        w.key("spans").begin_array();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const span& s = spans_[i];
            w.begin_object();
            w.key("id").value(static_cast<std::uint64_t>(i));
            w.key("name").value(s.name);
            w.key("parent").value(s.parent);
            w.key("start_s").value(s.start);
            w.key("end_s").value(s.end);
            w.key("self_s").value(self[i]);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        os << '\n';
    }

private:
    using clock = std::chrono::steady_clock;

    std::string run_id_;
    clock::time_point origin_;
    std::vector<span> spans_;
};

}  // namespace perfbench
