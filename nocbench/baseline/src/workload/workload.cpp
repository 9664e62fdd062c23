#include "workload/workload.hpp"

#include "common/check.hpp"

namespace nocsim {

const std::vector<std::string>& workload_categories() {
  static const std::vector<std::string> cats = {"H", "HM", "HML", "M", "HL", "ML", "L"};
  return cats;
}

WorkloadSpec make_category_workload(const std::string& category, int num_nodes, Rng& rng) {
  std::vector<const AppProfile*> pool;
  for (const char c : category) {
    IntensityClass cls;
    switch (c) {
      case 'H': cls = IntensityClass::Heavy; break;
      case 'M': cls = IntensityClass::Medium; break;
      case 'L': cls = IntensityClass::Light; break;
      default: NOCSIM_CHECK_MSG(false, "workload category must be drawn from {H,M,L}"); return {};
    }
    for (const AppProfile* p : apps_in_class(cls)) pool.push_back(p);
  }
  NOCSIM_CHECK(!pool.empty());

  WorkloadSpec spec;
  spec.category = category;
  spec.app_names.reserve(num_nodes);
  for (int i = 0; i < num_nodes; ++i)
    spec.app_names.push_back(pool[rng.next_below(pool.size())]->name);
  return spec;
}

WorkloadSpec make_checkerboard_workload(const std::string& app_a, const std::string& app_b,
                                        int width, int height) {
  (void)app_by_name(app_a);  // validate names early
  (void)app_by_name(app_b);
  WorkloadSpec spec;
  spec.category = app_a + "+" + app_b;
  spec.app_names.reserve(static_cast<std::size_t>(width) * height);
  for (int y = 0; y < height; ++y)
    for (int x = 0; x < width; ++x)
      spec.app_names.push_back(((x + y) % 2 == 0) ? app_a : app_b);
  return spec;
}

WorkloadSpec make_homogeneous_workload(const std::string& app, int num_nodes) {
  (void)app_by_name(app);
  WorkloadSpec spec;
  spec.category = app;
  spec.app_names.assign(num_nodes, app);
  return spec;
}

}  // namespace nocsim
