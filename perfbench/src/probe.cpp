#include "workloads.hpp"

#include "util/sim_time.hpp"

namespace u1b {

void WriteProbe::append_batch(const u1::TraceRecord* records,
                              std::size_t count) {
  for (std::size_t i = 0; i < count; ++i)
    if (records[i].t < 0) ++prewindow_;
  records_ += count;
  if (!tracer_.enabled()) {
    inner_.append_batch(records, count);
    return;
  }
  const double t0 = now_s();
  const double c0 = thread_cpu_s();
  inner_.append_batch(records, count);
  const double c1 = thread_cpu_s();
  const double t1 = now_s();

  const u1::SimTime t = count > 0 && records[0].t > 0 ? records[0].t : 0;
  const auto epoch = static_cast<std::int64_t>(t / u1::kHour);
  if (calls_ == 0) first_call_at_ = t0;
  if (calls_ > 0 && epoch != epoch_) finish();
  if (epoch != epoch_ || calls_ == 0) {
    epoch_ = epoch;
    span_start_ = t0;
  }
  span_end_ = t1;
  ++calls_;
  busy_s_ += t1 - t0;
  cpu_s_ += c1 - c0;
}

void WriteProbe::finish() {
  if (calls_ == 0 || epoch_ < 0) return;
  tracer_.add("trace.write", span_start_, span_end_, parent_, epoch_);
  epoch_ = -1;
}

}  // namespace u1b
