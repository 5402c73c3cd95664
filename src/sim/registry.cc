#include "sim/registry.hh"

namespace mbias::sim
{

const MachineRegistry &
MachineRegistry::global()
{
    static const MachineRegistry registry;
    return registry;
}

MachineRegistry::MachineRegistry()
{
    // Paper platforms first, in paper order (P4, Core 2, m5 O3CPU):
    // MachineConfig::allPresets() and every golden-pinned figure
    // iterate this prefix.
    add({MachineConfig::p4Like(), true, "out-of-order"});
    add({MachineConfig::core2Like(), true, "out-of-order"});
    add({MachineConfig::o3Like(), true, "out-of-order"});
    // Non-paper backends extend the study beyond the paper's set.
    add({MachineConfig::inorderLike(), false, "in-order"});
}

void
MachineRegistry::add(MachineBackend backend)
{
    if (backend.paperPreset)
        paperPresets_.push_back(backend.config);
    names_.push_back(backend.config.name);
    if (!namesJoined_.empty())
        namesJoined_ += ", ";
    namesJoined_ += backend.config.name;
    backends_.push_back(std::move(backend));
}

const MachineBackend *
MachineRegistry::byName(const std::string &name) const
{
    for (const auto &b : backends_)
        if (b.config.name == name)
            return &b;
    return nullptr;
}

const std::vector<MachineConfig> &
MachineConfig::allPresets()
{
    return MachineRegistry::global().paperPresets();
}

} // namespace mbias::sim
