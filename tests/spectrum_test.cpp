// Tests for the AoA spectrum container and its operations.
#include <gtest/gtest.h>

#include <cmath>

#include "aoa/spectrum.h"

namespace arraytrack::aoa {
namespace {

AoaSpectrum gaussian_peak_spectrum(std::size_t bins, double center_rad,
                                   double width_rad, double height = 1.0) {
  AoaSpectrum s(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    const double d = bearing_distance(s.bin_bearing(i), center_rad);
    s[i] += height * std::exp(-0.5 * (d / width_rad) * (d / width_rad));
  }
  return s;
}

TEST(BearingDistanceTest, WrapsCorrectly) {
  EXPECT_NEAR(bearing_distance(0.1, kTwoPi - 0.1), 0.2, 1e-12);
  EXPECT_NEAR(bearing_distance(0.0, kPi), kPi, 1e-12);
  EXPECT_NEAR(bearing_distance(deg2rad(350), deg2rad(10)), deg2rad(20),
              1e-12);
}

TEST(SpectrumTest, ValueAtInterpolates) {
  AoaSpectrum s(4);  // bins at 0, 90, 180, 270 deg
  s[0] = 0.0;
  s[1] = 1.0;
  EXPECT_NEAR(s.value_at(deg2rad(45.0)), 0.5, 1e-12);
  EXPECT_NEAR(s.value_at(deg2rad(90.0)), 1.0, 1e-12);
  // Wraparound between bin 3 and bin 0.
  s[3] = 0.4;
  EXPECT_NEAR(s.value_at(deg2rad(315.0)), 0.2, 1e-12);
}

TEST(SpectrumTest, NormalizeSetsMaxToOne) {
  auto s = gaussian_peak_spectrum(360, deg2rad(100), deg2rad(5), 7.0);
  s.normalize();
  EXPECT_NEAR(s.max_value(), 1.0, 1e-12);
  AoaSpectrum z(8);
  z.normalize();  // all-zero: no-op, no NaN
  EXPECT_DOUBLE_EQ(z.max_value(), 0.0);
}

TEST(SpectrumTest, FindPeaksSortedByPower) {
  auto s = gaussian_peak_spectrum(720, deg2rad(60), deg2rad(4), 1.0);
  s += gaussian_peak_spectrum(720, deg2rad(200), deg2rad(4), 0.6);
  s += gaussian_peak_spectrum(720, deg2rad(300), deg2rad(4), 0.3);
  const auto peaks = s.find_peaks(0.1);
  ASSERT_EQ(peaks.size(), 3u);
  EXPECT_NEAR(rad2deg(peaks[0].bearing_rad), 60.0, 1.0);
  EXPECT_NEAR(rad2deg(peaks[1].bearing_rad), 200.0, 1.0);
  EXPECT_NEAR(rad2deg(peaks[2].bearing_rad), 300.0, 1.0);
  EXPECT_GT(peaks[0].power, peaks[1].power);
}

TEST(SpectrumTest, FindPeaksRespectsFloor) {
  auto s = gaussian_peak_spectrum(720, deg2rad(60), deg2rad(4), 1.0);
  s += gaussian_peak_spectrum(720, deg2rad(200), deg2rad(4), 0.05);
  EXPECT_EQ(s.find_peaks(0.1).size(), 1u);
  EXPECT_EQ(s.find_peaks(0.01).size(), 2u);
}

TEST(SpectrumTest, FindPeaksHandlesWraparound) {
  const auto s = gaussian_peak_spectrum(720, deg2rad(0.5), deg2rad(4), 1.0);
  const auto peaks = s.find_peaks(0.1);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_LT(bearing_distance(peaks[0].bearing_rad, deg2rad(0.5)),
            deg2rad(1.0));
}

TEST(SpectrumTest, RemoveLobeErasesOnlyThatLobe) {
  auto s = gaussian_peak_spectrum(720, deg2rad(60), deg2rad(4), 1.0);
  s += gaussian_peak_spectrum(720, deg2rad(200), deg2rad(4), 0.6);
  // Remove by a bearing slightly off the peak center (walks uphill).
  s.remove_lobe(deg2rad(57.0));
  const auto peaks = s.find_peaks(0.1);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_NEAR(rad2deg(peaks[0].bearing_rad), 200.0, 1.0);
  // The other lobe is untouched.
  EXPECT_NEAR(s.value_at(deg2rad(200.0)), 0.6, 1e-6);
}

TEST(SpectrumTest, GeometryWeightingSuppressesEndfire) {
  AoaSpectrum s(720);
  for (std::size_t i = 0; i < s.bins(); ++i) s[i] = 1.0;
  s.apply_geometry_weighting();
  // Endfire (0 and 180 deg) crushed, broadside (90/270) untouched.
  EXPECT_LT(s.value_at(deg2rad(2.0)), 0.1);
  EXPECT_LT(s.value_at(deg2rad(178.0)), 0.1);
  EXPECT_LT(s.value_at(deg2rad(358.0)), 0.1);
  EXPECT_NEAR(s.value_at(deg2rad(90.0)), 1.0, 1e-9);
  EXPECT_NEAR(s.value_at(deg2rad(270.0)), 1.0, 1e-9);
  // Inside the paper's 15..165 degree window the weight is exactly 1.
  EXPECT_NEAR(s.value_at(deg2rad(20.0)), 1.0, 1e-9);
  EXPECT_NEAR(s.value_at(deg2rad(340.0)), 1.0, 1e-9);
  // At 10 degrees off axis the weight is sin(10 deg).
  EXPECT_NEAR(s.value_at(deg2rad(10.0)), std::sin(deg2rad(10.0)), 1e-6);
}

TEST(SpectrumTest, SidePowerAndScaleSide) {
  auto s = gaussian_peak_spectrum(720, deg2rad(90), deg2rad(5), 1.0);
  s += gaussian_peak_spectrum(720, deg2rad(270), deg2rad(5), 0.5);
  EXPECT_GT(s.side_power(true), s.side_power(false));
  s.scale_side(/*front=*/false, 0.0);
  EXPECT_NEAR(s.value_at(deg2rad(270.0)), 0.0, 1e-9);
  EXPECT_NEAR(s.value_at(deg2rad(90.0)), 1.0, 1e-6);
}

TEST(SpectrumTest, DominantBearing) {
  auto s = gaussian_peak_spectrum(720, deg2rad(123), deg2rad(3), 2.0);
  EXPECT_NEAR(rad2deg(s.dominant_bearing()), 123.0, 0.6);
}

TEST(SpectrumTest, AccumulateMismatchThrows) {
  AoaSpectrum a(10), b(12);
  EXPECT_THROW(a += b, std::invalid_argument);
}

TEST(SpectrumTest, AsciiRenderNonEmpty) {
  const auto s = gaussian_peak_spectrum(720, deg2rad(90), deg2rad(5), 1.0);
  // Widths under 8 leave no room for the axis-label padding.
  for (std::size_t width : {40u, 8u, 7u, 3u, 1u}) {
    const auto art = s.to_ascii(width, 6);
    EXPECT_NE(art.find('#'), std::string::npos) << "width " << width;
    EXPECT_NE(art.find("360 deg"), std::string::npos) << "width " << width;
  }
}

}  // namespace
}  // namespace arraytrack::aoa
