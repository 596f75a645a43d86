#include "router/roco/vc_config.h"

#include "common/log.h"

namespace noc {

const char *
toString(VcClass c)
{
    switch (c) {
      case VcClass::Dx: return "dx";
      case VcClass::Dy: return "dy";
      case VcClass::Txy: return "txy";
      case VcClass::Tyx: return "tyx";
      case VcClass::InjXy: return "Injxy";
      case VcClass::InjYx: return "Injyx";
    }
    return "?";
}

RocoVcConfig
RocoVcConfig::forRouting(RoutingKind kind)
{
    using enum VcClass;
    RocoVcConfig c{};
    switch (kind) {
      case RoutingKind::Adaptive:
        // Row: {dx, tyx, Injxy} {dx, dx, tyx}
        // Col: {dy, txy, Injyx} {dy, txy, txy}
        c.cls[0][0][0] = Dx;  c.cls[0][0][1] = Tyx; c.cls[0][0][2] = InjXy;
        c.cls[0][1][0] = Dx;  c.cls[0][1][1] = Dx;  c.cls[0][1][2] = Tyx;
        c.cls[1][0][0] = Dy;  c.cls[1][0][1] = Txy; c.cls[1][0][2] = InjYx;
        c.cls[1][1][0] = Dy;  c.cls[1][1][1] = Txy; c.cls[1][1][2] = Txy;
        break;
      case RoutingKind::XYYX:
        // Row: {dx, tyx, Injxy} {dx, dx, tyx}
        // Col: {dy, txy, Injyx} {dy, dy, txy}
        c.cls[0][0][0] = Dx;  c.cls[0][0][1] = Tyx; c.cls[0][0][2] = InjXy;
        c.cls[0][1][0] = Dx;  c.cls[0][1][1] = Dx;  c.cls[0][1][2] = Tyx;
        c.cls[1][0][0] = Dy;  c.cls[1][0][1] = Txy; c.cls[1][0][2] = InjYx;
        c.cls[1][1][0] = Dy;  c.cls[1][1][1] = Dy;  c.cls[1][1][2] = Txy;
        break;
      case RoutingKind::XY:
        // Row: {dx, dx, Injxy} {dx, dx, Injxy}
        // Col: {dy, txy, Injyx} {dy, dy, txy}
        c.cls[0][0][0] = Dx;  c.cls[0][0][1] = Dx;  c.cls[0][0][2] = InjXy;
        c.cls[0][1][0] = Dx;  c.cls[0][1][1] = Dx;  c.cls[0][1][2] = InjXy;
        c.cls[1][0][0] = Dy;  c.cls[1][0][1] = Txy; c.cls[1][0][2] = InjYx;
        c.cls[1][1][0] = Dy;  c.cls[1][1][1] = Dy;  c.cls[1][1][2] = Txy;
        break;
    }
    return c;
}

int
RocoVcConfig::countClass(Module m, int port, VcClass c) const
{
    int n = 0;
    for (int v = 0; v < kVcsPerSet; ++v)
        n += at(m, port, v) == c ? 1 : 0;
    return n;
}

} // namespace noc
