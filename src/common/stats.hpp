#pragma once
// Streaming and batch statistics used throughout the benches and the
// analysis module (boxplots for Fig 7, summary rows for EXPERIMENTS.md).

#include <cstddef>
#include <span>
#include <vector>

namespace envmon {

// Welford's online algorithm: numerically stable running mean/variance.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);  // Chan et al. parallel merge

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  // sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Quantile of a sample using linear interpolation between order statistics
// (type-7 estimator, the numpy/R default).  q in [0, 1].
[[nodiscard]] double quantile(std::span<const double> sorted_values, double q);

// Convenience: copies, sorts, and evaluates several quantiles at once.
[[nodiscard]] std::vector<double> quantiles(std::span<const double> values,
                                            std::span<const double> qs);

// Five-number summary plus Tukey whiskers/outliers, i.e. exactly what a
// boxplot renders (used for the Fig 7 reproduction).
struct BoxplotStats {
  double min = 0.0;           // sample min
  double whisker_low = 0.0;   // lowest point >= q1 - 1.5*iqr
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double whisker_high = 0.0;  // highest point <= q3 + 1.5*iqr
  double max = 0.0;           // sample max
  std::vector<double> outliers;
};

[[nodiscard]] BoxplotStats boxplot_stats(std::span<const double> values);

// Welch's unequal-variance t-test.  The paper reports the API-vs-daemon
// difference in Fig 7 as "statistically significant"; we verify that.
struct WelchTTest {
  double t = 0.0;
  double dof = 0.0;
  double p_value = 1.0;  // two-sided
};

[[nodiscard]] WelchTTest welch_t_test(std::span<const double> a, std::span<const double> b);

}  // namespace envmon
