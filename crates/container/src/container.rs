//! The container: deployment and the server-side invocation path.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use nonrep_types::ids::{OrgId, ServiceUri};
use nonrep_types::value::Value;

use crate::component::Component;
use crate::descriptor::DeploymentDescriptor;
use crate::interceptor::{Chain, Interceptor, Invocation};
use crate::ContainerError;

struct Deployment {
    component: Arc<dyn Component>,
    descriptor: DeploymentDescriptor,
}

/// An organisation's component container.
///
/// Deploys components under service names, holds the server-side
/// interceptor chain, and executes incoming invocations: descriptor
/// checks first, then interceptors, then the component — mirroring a J2EE
/// container's managed invocation path.
pub struct Container {
    org: OrgId,
    deployments: RwLock<HashMap<ServiceUri, Arc<Deployment>>>,
    server_chain: RwLock<Vec<Arc<dyn Interceptor>>>,
}

impl fmt::Debug for Container {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Container")
            .field("org", &self.org)
            .field("deployments", &self.deployments.read().len())
            .field("interceptors", &self.server_chain.read().len())
            .finish()
    }
}

impl Container {
    /// Creates an empty container for `org`.
    pub fn new(org: impl Into<OrgId>) -> Arc<Self> {
        Arc::new(Self {
            org: org.into(),
            deployments: RwLock::new(HashMap::new()),
            server_chain: RwLock::new(Vec::new()),
        })
    }

    /// The owning organisation.
    pub fn org(&self) -> &OrgId {
        &self.org
    }

    /// Deploys `component` under `descriptor`.
    ///
    /// # Errors
    ///
    /// [`ContainerError::Application`] if the descriptor exports a method
    /// the component does not implement.
    pub fn deploy(
        &self,
        descriptor: DeploymentDescriptor,
        component: Arc<dyn Component>,
    ) -> Result<(), ContainerError> {
        let available = component.methods();
        for m in &descriptor.methods {
            if !available.iter().any(|a| a == m) {
                return Err(ContainerError::Application(format!(
                    "descriptor exports {m} but component does not implement it"
                )));
            }
        }
        self.deployments.write().insert(
            descriptor.service.clone(),
            Arc::new(Deployment {
                component,
                descriptor,
            }),
        );
        Ok(())
    }

    /// Appends an interceptor to the server chain (runs in append order).
    pub fn add_interceptor(&self, interceptor: Arc<dyn Interceptor>) {
        self.server_chain.write().push(interceptor);
    }

    /// Inserts an interceptor at the *front* of the server chain — where
    /// §4.2 places the NR interceptor ("first in the chain on the incoming
    /// path, the last on the return path").
    pub fn add_first_interceptor(&self, interceptor: Arc<dyn Interceptor>) {
        self.server_chain.write().insert(0, interceptor);
    }

    /// The deployment descriptor of `service`, if deployed.
    pub fn descriptor(&self, service: &ServiceUri) -> Option<DeploymentDescriptor> {
        self.deployments
            .read()
            .get(service)
            .map(|d| d.descriptor.clone())
    }

    /// Executes an incoming invocation through the full server chain.
    ///
    /// # Errors
    ///
    /// [`ContainerError::NoSuchService`]/[`ContainerError::NoSuchMethod`]
    /// for binding failures, otherwise whatever the chain and component
    /// return.
    pub fn invoke(&self, inv: Invocation) -> Result<Value, ContainerError> {
        let deployment = self
            .deployments
            .read()
            .get(&inv.service)
            .cloned()
            .ok_or_else(|| ContainerError::NoSuchService(inv.service.clone()))?;
        if !deployment.descriptor.exports(&inv.method) {
            return Err(ContainerError::NoSuchMethod(
                inv.service.clone(),
                inv.method.clone(),
            ));
        }
        let interceptors = self.server_chain.read().clone();
        let component = Arc::clone(&deployment.component);
        let target = move |inv: Invocation| component.invoke(&inv.method, &inv.args);
        let chain = Chain::new(&interceptors, &target);
        chain.proceed(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::FnComponent;
    use crate::interceptor::{LoggingInterceptor, MetricsInterceptor};
    use nonrep_types::ids::MethodName;

    fn echo_component() -> Arc<dyn Component> {
        Arc::new(FnComponent::new().method("echo", |args| Ok(args.clone())))
    }

    fn descriptor() -> DeploymentDescriptor {
        DeploymentDescriptor::new("urn:echo", [MethodName::new("echo")])
    }

    #[test]
    fn deploy_and_invoke() {
        let c = Container::new("org-a");
        c.deploy(descriptor(), echo_component()).unwrap();
        let out = c
            .invoke(Invocation::new(
                "caller",
                "urn:echo",
                "echo",
                Value::from(7i64),
            ))
            .unwrap();
        assert_eq!(out, Value::from(7i64));
        assert!(c.descriptor(&ServiceUri::new("urn:echo")).is_some());
    }

    #[test]
    fn descriptor_must_match_component() {
        let c = Container::new("org-a");
        let bad = DeploymentDescriptor::new("urn:echo", [MethodName::new("missing")]);
        assert!(matches!(
            c.deploy(bad, echo_component()),
            Err(ContainerError::Application(_))
        ));
    }

    #[test]
    fn unknown_service_and_method() {
        let c = Container::new("org-a");
        c.deploy(descriptor(), echo_component()).unwrap();
        assert!(matches!(
            c.invoke(Invocation::new("x", "urn:none", "echo", Value::Null)),
            Err(ContainerError::NoSuchService(_))
        ));
        assert!(matches!(
            c.invoke(Invocation::new("x", "urn:echo", "hidden", Value::Null)),
            Err(ContainerError::NoSuchMethod(_, _))
        ));
    }

    #[test]
    fn interceptors_wrap_component() {
        let c = Container::new("org-a");
        c.deploy(descriptor(), echo_component()).unwrap();
        let log = Arc::new(LoggingInterceptor::new());
        let metrics = Arc::new(MetricsInterceptor::new());
        c.add_interceptor(log.clone());
        c.add_interceptor(metrics.clone());
        c.invoke(Invocation::new("x", "urn:echo", "echo", Value::Null))
            .unwrap();
        assert_eq!(metrics.counts(), (1, 0));
        assert_eq!(log.entries().len(), 1);
    }

    #[test]
    fn add_first_prepends() {
        struct Marker(Arc<parking_lot::Mutex<Vec<&'static str>>>, &'static str);
        impl Interceptor for Marker {
            fn invoke(&self, inv: Invocation, chain: &Chain<'_>) -> Result<Value, ContainerError> {
                self.0.lock().push(self.1);
                chain.proceed(inv)
            }
        }
        let c = Container::new("org-a");
        c.deploy(descriptor(), echo_component()).unwrap();
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        c.add_interceptor(Arc::new(Marker(order.clone(), "second")));
        c.add_first_interceptor(Arc::new(Marker(order.clone(), "first")));
        c.invoke(Invocation::new("x", "urn:echo", "echo", Value::Null))
            .unwrap();
        assert_eq!(order.lock().as_slice(), &["first", "second"]);
    }
}
