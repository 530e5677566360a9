#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace envmon {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double quantile(std::span<const double> sorted_values, double q) {
  if (sorted_values.empty()) throw std::invalid_argument("quantile of empty sample");
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted_values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_values[lo] + frac * (sorted_values[hi] - sorted_values[lo]);
}

std::vector<double> quantiles(std::span<const double> values, std::span<const double> qs) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(qs.size());
  for (const double q : qs) out.push_back(quantile(sorted, q));
  return out;
}

BoxplotStats boxplot_stats(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument("boxplot of empty sample");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());

  BoxplotStats bs;
  bs.min = sorted.front();
  bs.max = sorted.back();
  bs.q1 = quantile(sorted, 0.25);
  bs.median = quantile(sorted, 0.50);
  bs.q3 = quantile(sorted, 0.75);

  const double iqr = bs.q3 - bs.q1;
  const double fence_low = bs.q1 - 1.5 * iqr;
  const double fence_high = bs.q3 + 1.5 * iqr;

  bs.whisker_low = bs.max;  // placeholder; fixed below
  bs.whisker_high = bs.min;
  for (const double x : sorted) {
    if (x < fence_low || x > fence_high) {
      bs.outliers.push_back(x);
    } else {
      bs.whisker_low = std::min(bs.whisker_low, x);
      bs.whisker_high = std::max(bs.whisker_high, x);
    }
  }
  return bs;
}

namespace {

// Regularized incomplete beta via continued fraction (Lentz), enough for a
// two-sided t-test p-value.
double betacf(double a, double b, double x) {
  constexpr int kMaxIter = 200;
  constexpr double kEps = 3e-12;
  constexpr double kFpMin = 1e-300;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

double incbeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_beta = std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
  const double front = std::exp(a * std::log(x) + b * std::log(1.0 - x) - ln_beta);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * betacf(a, b, x) / a;
  }
  return 1.0 - front * betacf(b, a, 1.0 - x) / b;
}

}  // namespace

WelchTTest welch_t_test(std::span<const double> a, std::span<const double> b) {
  RunningStats sa, sb;
  for (const double x : a) sa.add(x);
  for (const double x : b) sb.add(x);

  WelchTTest result;
  if (sa.count() < 2 || sb.count() < 2) return result;

  const double va = sa.variance() / static_cast<double>(sa.count());
  const double vb = sb.variance() / static_cast<double>(sb.count());
  const double se2 = va + vb;
  if (se2 <= 0.0) {
    result.t = (sa.mean() == sb.mean()) ? 0.0 : std::numeric_limits<double>::infinity();
    result.p_value = (sa.mean() == sb.mean()) ? 1.0 : 0.0;
    return result;
  }
  result.t = (sa.mean() - sb.mean()) / std::sqrt(se2);
  result.dof = se2 * se2 /
               (va * va / static_cast<double>(sa.count() - 1) +
                vb * vb / static_cast<double>(sb.count() - 1));
  // Two-sided p-value from the t CDF via the incomplete beta function.
  const double x = result.dof / (result.dof + result.t * result.t);
  result.p_value = incbeta(result.dof / 2.0, 0.5, x);
  return result;
}

}  // namespace envmon
