/** Fixture: telemetry keys that break the naming convention. */
#include <map>
#include <string>

#define GPUSCALE_TRACE_SCOPE(name) void(name)

struct Registry {
    static Registry &instance();
    int &counter(const std::string &name);
    int &gauge(const std::string &name);
};

struct Manifest {
    std::map<std::string, std::string> extra;
};

void
record(Manifest &manifest)
{
    Registry::instance().counter("Sweep.Estimates");
    Registry::instance().gauge("sweep.ok_name");
    GPUSCALE_TRACE_SCOPE("BadSpan");
    GPUSCALE_TRACE_SCOPE("sweep/");
    manifest.extra["Bad-Key"] = "x";
    manifest.extra["noise_sigma"] = "y";
}
